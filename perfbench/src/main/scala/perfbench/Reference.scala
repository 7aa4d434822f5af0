package perfbench

import java.nio.{ByteBuffer, ByteOrder}
import scala.collection.mutable
import repro.core.{BitArray, VOSHashes, VOSSketch}
import repro.eval.{EvalConfig, Harness}
import repro.stream.{DatasetSpec, DynamicStreamGen, EdgeEvent, GraphGen}

/** One workload's inputs: the stream, its checkpoints and tracked pairs. */
final case class Inputs(
    spec: DatasetSpec,
    cfg: EvalConfig,
    stream: IndexedSeq[EdgeEvent],
    pairs: IndexedSeq[(Long, Long)],
    numUsers: Int,
    hashes: VOSHashes,
) {
  /** Exclusive end (event index) of each ingest chunk; checkpoint c follows
    * chunk c. Same times as `Harness.runAccuracy` uses.
    */
  val bounds: IndexedSeq[Int] =
    (1 to cfg.checkpoints).map(c => ((stream.length.toLong * c) / cfg.checkpoints).toInt)

  /** The handful of pairs scored by the workloads that are not about accuracy. */
  def probePairs: IndexedSeq[(Long, Long)] = pairs.take(Inputs.ProbePairs)
}

object Inputs {
  val Checkpoints = 20
  val ProbePairs  = 8

  /** Dataset sizes: `full` is youtube-lite with the paper's top-150 users;
    * `small`, for the benchmark's self-test, is the same shape at a fifth of
    * the edges, tracking only the top 30 users so that tracked pairs still
    * have item sets large enough for the paper's accuracy ordering.
    */
  def spec(size: String): (DatasetSpec, Int) = size match {
    case "full"  => (DatasetSpec.youtube, 150)
    case "small" => (DatasetSpec.scaled(DatasetSpec.youtube, 0.2), 30)
    case other   => throw new IllegalArgumentException(s"unknown size $other (full|small)")
  }

  /** Generate graph, stream and pairs for `seed`. Seed 0 is the repo's own
    * youtube-lite configuration (graph seed 101, harness seed 42).
    */
  def generate(size: String, seed: Long, tracer: Tracer): Inputs = {
    val (base0, top) = spec(size)
    val spec1 = base0.copy(seed = base0.seed + seed)
    val cfg   = EvalConfig(topUsers = top, maxPairs = 1000, checkpoints = Checkpoints, seed = 42L + seed)
    val prep  = tracer.span("Harness.prepare")(Harness.prepare(spec1, cfg))
    if (tracer.enabled) {
      // Traced run only: the two generators the harness calls, on their
      // own. They must give the harness's stream back.
      val base   = tracer.span("GraphGen.baseEdges")(GraphGen.baseEdges(spec1))
      val stream = tracer.span("DynamicStreamGen.generate")(
        DynamicStreamGen.generate(base, cfg.d, cfg.r, cfg.seed ^ spec1.seed))
      require(prep.stream == stream, "Harness.prepare's stream differs from the generators' for the same seeds")
    }
    val hashes = VOSSketch.paperConfig(cfg.kBaseline, prep.numUsers, cfg.lambda, cfg.seed)
    Inputs(spec1, cfg, prep.stream, prep.pairs, prep.numUsers, hashes)
  }
}

/** Reference truth computed apart from the program: every user's current
  * item set in plain `java.util.BitSet`s, replayed event by event. From
  * those come n_u, s_{u,v} and J at every checkpoint, and the shared array
  * the sketch must hold, XOR-ed word by word from the edge positions.
  *
  * @param pairs pairs whose s and J are recorded at each checkpoint
  */
final class Reference(in: Inputs, pairs: IndexedSeq[(Long, Long)]) {
  private val m     = in.hashes.m
  private val nWord = (m + 63) >>> 6

  /** Nonzero n_u per user at each checkpoint. */
  val counts = new Array[Map[Long, Long]](in.bounds.length)
  /** Shared-array words at each checkpoint. */
  val words = new Array[Array[Long]](in.bounds.length)
  /** s_{u,v} and J per tracked pair at each checkpoint. */
  val pairS = new Array[Array[Long]](in.bounds.length)
  val pairJ = new Array[Array[Double]](in.bounds.length)
  /** Shared array built from the final edge set alone (inserts only). */
  val finalEdgeWords = new Array[Long](nWord)

  replay()

  private def replay(): Unit = {
    // Dense per-user slots: user ids are arbitrary longs.
    val slot  = mutable.LongMap.empty[Int]
    val sets  = mutable.ArrayBuffer.empty[java.util.BitSet]
    val n     = mutable.ArrayBuffer.empty[Long]
    val w     = new Array[Long](nWord)
    def slotOf(u: Long): Int = slot.getOrElseUpdate(u, { sets += new java.util.BitSet; n += 0L; sets.length - 1 })
    val pairSlots = pairs.map { case (u, v) => (slotOf(u), slotOf(v)) }
    var i = 0
    var c = 0
    while (i < in.stream.length) {
      val e  = in.stream(i)
      val s  = slotOf(e.user)
      val it = e.item.toInt
      require(e.item == it.toLong && it >= 0, s"item ${e.item} is not a small id")
      if (e.insert) {
        require(!sets(s).get(it), s"stream inserts (${e.user},${e.item}) twice at t=${e.time}")
        sets(s).set(it)
        n(s) += 1
      } else {
        require(sets(s).get(it), s"stream deletes absent (${e.user},${e.item}) at t=${e.time}")
        sets(s).clear(it)
        n(s) -= 1
      }
      val pos = in.hashes.position(e.user, e.item)
      w(pos >>> 6) ^= 1L << (pos & 63)
      i += 1
      while (c < in.bounds.length && i == in.bounds(c)) {
        counts(c) = slot.iterator.collect { case (u, k) if n(k) != 0L => u -> n(k) }.toMap
        words(c) = w.clone()
        pairS(c) = new Array[Long](pairs.length)
        pairJ(c) = new Array[Double](pairs.length)
        var p = 0
        while (p < pairs.length) {
          val (a, b) = pairSlots(p)
          val inter = sets(a).clone().asInstanceOf[java.util.BitSet]
          inter.and(sets(b))
          val sp = inter.cardinality().toLong
          val union = n(a) + n(b) - sp.toDouble
          pairS(c)(p) = sp
          pairJ(c)(p) = if (union == 0) 0.0 else sp / union
          p += 1
        }
        c += 1
      }
    }
    slot.foreach { case (u, k) =>
      var it = sets(k).nextSetBit(0)
      while (it >= 0) {
        val pos = in.hashes.position(u, it.toLong)
        finalEdgeWords(pos >>> 6) ^= 1L << (pos & 63)
        it = sets(k).nextSetBit(it + 1)
      }
    }
  }

  def last: Int = in.bounds.length - 1
}

object Reference {

  /** The words of `bits` as longs, via the array's own byte encoding. */
  def wordsOf(bits: BitArray): Array[Long] = {
    val buf = ByteBuffer.wrap(bits.toBytes).order(ByteOrder.LITTLE_ENDIAN).asLongBuffer()
    val out = new Array[Long](buf.remaining())
    buf.get(out)
    out
  }

  /** Number of array bits where `bits` and `words` differ. */
  def bitsDiffering(bits: BitArray, words: Array[Long]): Long = {
    val got = wordsOf(bits)
    if (got.length != words.length) Long.MaxValue
    else {
      var d = 0L
      var i = 0
      while (i < got.length) { d += java.lang.Long.bitCount(got(i) ^ words(i)); i += 1 }
      d
    }
  }
}
