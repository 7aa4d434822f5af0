package perfbench

import java.io.File
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.catalyst.encoders.{encoderFor, ExpressionEncoder}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQuery
import repro.baselines.ExactSim
import repro.core.{BitArray, VOSAggregator, VOSEstimator, VOSHashes, VOSSketch, VOSStreaming}
import repro.core.SimilaritySketch
import repro.eval.{Harness, Metrics}
import repro.stream.EdgeEvent

/** Times of one step: an ingest chunk and the checkpoint after it. */
final case class StepTiming(edges: Long, ingestNs: Long, checkpointNs: Long)

/** What every workload gets from set-up. */
final class Ctx(
    val in: Inputs,
    val ref: Reference,
    val tracer: Tracer,
    val checks: Checks,
    val corrupt: Option[String],
    val spark: () => SparkSession,
    val scratchDir: File,
) {
  def chunk(c: Int): (Int, Int) = (if (c == 0) 0 else in.bounds(c - 1), in.bounds(c))

  /** Apply the self-test's fault of `kind` to `sketch` at the last step. */
  def corruptSketch(c: Int, sketch: VOSSketch): Unit =
    if (c == ref.last) corrupt.foreach(Corrupt(_, sketch))

  /** Traced run only: time VOS's two per-edge parts on their own, on the
    * chunk's edges, outside the step's timings.
    */
  def probeUpdateParts(lo: Int, hi: Int, scratch: BitArray): Unit =
    if (tracer.enabled) {
      val h   = in.hashes
      val pos = new Array[Int](hi - lo)
      tracer.calls("Hashing.position", hi - lo) {
        var i = lo
        while (i < hi) { val e = in.stream(i); pos(i - lo) = h.position(e.user, e.item); i += 1 }
      }
      tracer.calls("BitArray.flip", hi - lo) {
        var i = 0
        while (i < pos.length) { scratch.flip(pos(i)); i += 1 }
      }
    }

  /** Score `pairs` on a VOS sketch; checks that n_u of every scored user
    * matches the reference at checkpoint `c`.
    */
  def scorePairs(c: Int, sketch: VOSSketch, pairs: IndexedSeq[(Long, Long)]): Long = {
    val t0 = System.nanoTime()
    var sum = 0.0
    pairs.foreach { case (u, v) => sum += sketch.estimate(u, v).s }
    val ns = System.nanoTime() - t0
    tracer.record("VOSSketch.estimate", pairs.length, ns)
    val want = ref.counts(c)
    val bad  = pairs.count { case (u, v) =>
      sketch.cardinality(u) != want.getOrElse(u, 0L) || sketch.cardinality(v) != want.getOrElse(v, 0L)
    }
    checks.check("counters", bad == 0, s"$bad scored pairs have n_u unlike the reference at checkpoint $c")
    checks.check("estimate", !sum.isNaN, s"NaN estimate at checkpoint $c")
    ns
  }
}

/** One workload: whole passes over the stream, each of `steps` steps. */
abstract class Workload(val ctx: Ctx) {
  def steps: Int = ctx.in.bounds.length
  /** Steps of one pass run during set-up, so the JIT has compiled the
    * step's code before it is timed.
    */
  def warmupSteps: Int = 2
  def startPass(): Unit
  def step(c: Int): StepTiming
  def endPass(): Unit = ()
  /** Sketch at the end of the last pass. */
  def finalSketch: VOSSketch
  /** A line about the last pass for the run's log. */
  def passSummary: Option[String] = None
  def close(): Unit = ()
}

object Workload {
  val names: Seq[String] = Seq("accuracy-youtube", "stream-youtube", "batch-youtube")

  def usesSpark(name: String): Boolean = name == "stream-youtube" || name == "batch-youtube"

  def apply(name: String, ctx: Ctx): Workload = name match {
    case "accuracy-youtube" => new AccuracyWorkload(ctx)
    case "stream-youtube"   => new StreamWorkload(ctx)
    case "batch-youtube"    => new BatchWorkload(ctx)
  }

  /** The sketch in the `Aggregator`'s kryo buffer encoding. */
  def bufferEncoder(h: VOSHashes): ExpressionEncoder[VOSSketch] =
    encoderFor(new VOSAggregator(h).bufferEncoder)

  def bufferBytes(h: VOSHashes, sketch: VOSSketch): Array[Byte] =
    bufferEncoder(h).createSerializer()(sketch).getBinary(0)
}

/** The paper's § V tracking run: the harness's four methods plus the exact
  * sets, scored on the 1,000 harness pairs at every checkpoint.
  */
final class AccuracyWorkload(ctx: Ctx) extends Workload(ctx) {
  import ctx._
  private var methods: Seq[SimilaritySketch] = Nil
  private var exact: ExactSim = _
  private val scratch = new BitArray(in.hashes.m)
  private val pairs   = in.pairs
  private val users   = pairs.flatMap { case (u, v) => Seq(u, v) }.distinct
  private var last: Map[String, (Double, Double)] = Map.empty

  private def vos: VOSSketch = methods.head.asInstanceOf[VOSSketch]
  private def layer(m: SimilaritySketch): String = m.getClass.getSimpleName

  def startPass(): Unit = {
    methods = Harness.methods(in.cfg, in.numUsers)
    require(vos.hashes == in.hashes, s"harness VOS config ${vos.hashes} is not ${in.hashes}")
    exact = new ExactSim
  }

  private def ingest(m: SimilaritySketch, lo: Int, hi: Int): Long = {
    val t0 = System.nanoTime()
    var i = lo
    while (i < hi) { m.update(in.stream(i)); i += 1 }
    val ns = System.nanoTime() - t0
    tracer.record(layer(m) + ".update", hi - lo, ns)
    ns
  }

  def step(c: Int): StepTiming = {
    val (lo, hi) = chunk(c)
    probeUpdateParts(lo, hi, scratch)
    val ingestNs = (exact +: methods).map(ingest(_, lo, hi)).sum

    val t0 = System.nanoTime()
    val trueS = new Array[Double](pairs.length)
    val trueJ = new Array[Double](pairs.length)
    var p = 0
    while (p < pairs.length) { trueS(p) = exact.commonItems(pairs(p)._1, pairs(p)._2).toDouble; p += 1 }
    tracer.record("ExactSim.commonItems", pairs.length, System.nanoTime() - t0)
    p = 0
    while (p < pairs.length) { trueJ(p) = exact.jaccard(pairs(p)._1, pairs(p)._2); p += 1 }
    if (corrupt.contains("truth")) trueS(0) += 1
    val scores = methods.map { m =>
      val t = System.nanoTime()
      val est = pairs.map { case (u, v) => m.estimatePair(u, v) }
      // VOS's estimatePair is its estimate plus a tuple.
      val name = if (m eq vos) "VOSSketch.estimate" else layer(m) + ".estimatePair"
      tracer.record(name, pairs.length, System.nanoTime() - t)
      (m.name, est)
    }
    val finalScores = if (c == ref.last) corruptScores(scores) else scores
    val errors = finalScores.map { case (name, est) =>
      val t = System.nanoTime()
      val (aape, _) = Metrics.aape(trueS.indices.map(i => (trueS(i), est(i)._1)))
      val armse     = Metrics.armse(trueJ.indices.map(i => (trueJ(i), est(i)._2)))
      tracer.record("Metrics.score", 1, System.nanoTime() - t)
      name -> (aape, armse)
    }.toMap
    val cpNs = System.nanoTime() - t0

    probeEstimatorParts()
    checkTruth(c, trueS, trueJ)
    if (c == ref.last) checkFinal(c, errors)
    last = errors
    StepTiming(hi - lo, ingestNs, cpNs)
  }

  private def corruptScores(scores: Seq[(String, IndexedSeq[(Double, Double)])]) =
    corrupt match {
      case Some("order") =>
        val byName = scores.toMap
        scores.map {
          case ("VOS", _) => "VOS" -> byName("RP")
          case ("RP", _)  => "RP"  -> byName("VOS")
          case other      => other
        }
      case Some("aape") =>
        scores.map {
          case ("VOS", est) => "VOS" -> est.map { case (s, j) => (2 * s + 1, j) }
          case other        => other
        }
      case _ => scores
    }

  /** Traced run only: VOS pair scoring split into its parts. */
  private def probeEstimatorParts(): Unit = if (tracer.enabled) {
    val k = in.hashes.k
    val odd = scala.collection.mutable.HashMap.empty[Long, BitArray]
    tracer.calls("VOSSketch.rebuildOddSketch", users.length) {
      users.foreach(u => odd(u) = vos.rebuildOddSketch(u))
    }
    val diff = new Array[Long](pairs.length)
    tracer.calls("BitArray.hammingDistance", pairs.length) {
      var p = 0
      while (p < pairs.length) { diff(p) = odd(pairs(p)._1).hammingDistance(odd(pairs(p)._2)); p += 1 }
    }
    val beta = vos.beta
    var sum = 0.0
    tracer.calls("VOSEstimator.estimate", pairs.length) {
      var p = 0
      while (p < pairs.length) {
        val (u, v) = pairs(p)
        sum += VOSEstimator.estimate(k, diff(p).toDouble / k, beta, vos.cardinality(u), vos.cardinality(v)).s
        p += 1
      }
    }
    checks.check("estimate", !sum.isNaN, "NaN from VOSEstimator.estimate")
  }

  private def checkTruth(c: Int, trueS: Array[Double], trueJ: Array[Double]): Unit = {
    val wantS = ref.pairS(c)
    val wantJ = ref.pairJ(c)
    val bad = trueS.indices.count(p => trueS(p) != wantS(p).toDouble || math.abs(trueJ(p) - wantJ(p)) > 1e-12)
    checks.check("exact", bad == 0, s"$bad pairs' exact s or J differ from the reference sets at checkpoint $c")
    val want = ref.counts(c)
    val badN = (exact +: methods).map { m =>
      users.count(u => m.cardinality(u) != want.getOrElse(u, 0L))
    }.sum
    checks.check("counters", badN == 0, s"$badN (method, user) counters differ at checkpoint $c")
  }

  private def checkFinal(c: Int, errors: Map[String, (Double, Double)]): Unit = {
    val (vAape, vArmse) = errors("VOS")
    val others = errors - "VOS"
    val vosBest = others.values.forall { case (a, r) => vAape < a && vArmse < r }
    val rpWorst = (errors - "RP").values.forall { case (a, r) => errors("RP")._1 > a && errors("RP")._2 > r }
    checks.check("paper-order", vosBest && rpWorst,
      s"final (AAPE, ARMSE) per method ${errors.map { case (n, (a, r)) => f"$n=($a%.4f,$r%.4f)" }.mkString(" ")}")
    checks.check("vos-aape", vAape < AccuracyWorkload.VosAapeCeiling,
      f"VOS AAPE $vAape%.4f is not below ${AccuracyWorkload.VosAapeCeiling}")
    corruptSketch(c, vos)
    checks.counters("counters", vos, ref.counts(c))
    // Deleted and re-inserted edges cancel under XOR.
    checks.array("array", vos, ref.finalEdgeWords)
    checks.check("beta", vos.beta < 0.5, s"beta ${vos.beta} is not below 1/2")
  }

  override def passSummary: Option[String] = Some("final-errors " + last.toSeq.sortBy(_._1)
    .map { case (n, (aape, armse)) => f"$n aape=$aape%.4f armse=$armse%.4f" }.mkString("; "))

  def finalSketch: VOSSketch = vos
}

object AccuracyWorkload {
  /** Fixed ceiling on VOS's final AAPE (the README gives the measured range). */
  val VosAapeCeiling = 0.25
}

/** `VOSStreaming`'s two stateful queries over `MemoryStream`s, one
  * micro-batch per step; a checkpoint collects both memory sinks,
  * reassembles the sketch and scores the probe pairs. Each pass starts
  * fresh queries, sinks and state.
  */
final class StreamWorkload(ctx: Ctx) extends Workload(ctx) {
  import ctx._
  private val spark = ctx.spark()
  import spark.implicits._
  private implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext

  private var pass = 0
  private var arraySource: MemoryStream[EdgeEvent] = _
  private var counterSource: MemoryStream[EdgeEvent] = _
  private var qa: StreamingQuery = _
  private var qc: StreamingQuery = _
  private var sinkBytes = 0L
  private var sketch: VOSSketch = _

  private def arrName = s"vos_array_$pass"
  private def cntName = s"vos_counts_$pass"
  private def ckptDir(q: String) = new File(scratchDir, s"stream-checkpoints/$q")

  def startPass(): Unit = {
    pass += 1
    arraySource = MemoryStream[EdgeEvent]
    counterSource = MemoryStream[EdgeEvent]
    qa = VOSStreaming.arrayUpdates(arraySource.toDS(), in.hashes, StreamWorkload.Groups)
      .writeStream.outputMode("update").format("memory").queryName(arrName)
      .option("checkpointLocation", ckptDir(arrName).getPath).start()
    qc = VOSStreaming.counterUpdates(counterSource.toDS())
      .writeStream.outputMode("update").format("memory").queryName(cntName)
      .option("checkpointLocation", ckptDir(cntName).getPath).start()
    sinkBytes = 0L
  }

  /** One micro-batch spans `ChunksPerBatch` reference chunks. */
  override def steps: Int = in.bounds.length / StreamWorkload.ChunksPerBatch
  override def warmupSteps: Int = 1

  def step(c: Int): StepTiming = {
    val k = (c + 1) * StreamWorkload.ChunksPerBatch - 1 // reference checkpoint after this batch
    val (lo, hi) = (chunk(k + 1 - StreamWorkload.ChunksPerBatch)._1, chunk(k)._2)
    val batch = in.stream.slice(lo, hi)
    val t0 = System.nanoTime()
    tracer.span("VOSStreaming.batch") {
      arraySource.addData(batch); counterSource.addData(batch)
      qa.processAllAvailable(); qc.processAllAvailable()
    }
    val ingest = System.nanoTime() - t0
    recordProgress(hi - lo)

    val t1 = System.nanoTime()
    val parts = spark.table(arrName).as[VOSStreaming.PartUpdate].collect().toSeq
    val ups   = spark.table(cntName).as[VOSStreaming.UserUpdate].collect().toSeq
    sketch = tracer.span("VOSStreaming.assemble") {
      VOSStreaming.assemble(in.hashes, StreamWorkload.Groups, parts, ups)
    }
    val scoreNs = scorePairs(k, sketch, in.probePairs)
    val cp = System.nanoTime() - t1

    if (tracer.enabled) {
      val total = parts.iterator.map(_.bytes.length + 20L).sum + ups.length * 24L
      tracer.gauge("VOSStreaming.sink_bytes", (total - sinkBytes).toDouble)
      tracer.gauge("VOSStreaming.state_bytes_per_edge", (total - sinkBytes).toDouble / (hi - lo))
      sinkBytes = total
    }
    corruptSketch(k, sketch)
    checks.array("array", sketch, ref.words(k))
    checks.counters("counters", sketch, ref.counts(k))
    StepTiming(hi - lo, ingest, cp)
  }

  /** State-store figures of the batch just run, from both queries' progress. */
  private def recordProgress(edges: Int): Unit = if (tracer.enabled) {
    val ops = Seq(qa, qc).flatMap(q => Option(q.lastProgress).toSeq.flatMap(_.stateOperators))
    tracer.gauge("VOSStreaming.state_rows_updated", ops.map(_.numRowsUpdated).sum.toDouble)
    tracer.gauge("VOSStreaming.state_bytes", ops.map(_.memoryUsedBytes).sum.toDouble)
  }

  override def endPass(): Unit = {
    Seq(qa, qc).foreach(q => if (q != null) q.stop())
    Seq(arrName, cntName).foreach { n =>
      spark.catalog.dropTempView(n)
      StreamWorkload.deleteTree(ckptDir(n))
    }
  }

  def finalSketch: VOSSketch = sketch
}

object StreamWorkload {
  /** Bit-range groups of the array operator. */
  val Groups = 16

  /** Reference chunks per micro-batch: 10 batches a pass, because every
    * batch rewrites all groups' state and a pass must fit one run.
    */
  val ChunksPerBatch = 2

  def deleteTree(f: File): Unit = {
    Option(f.listFiles()).foreach(_.foreach(deleteTree))
    f.delete()
    ()
  }
}

/** One `VOSAggregator.build` of the whole stream per step, from a cached
  * `Dataset` with one partition per core, then the tracked pairs scored on
  * the built sketch.
  */
final class BatchWorkload(ctx: Ctx) extends Workload(ctx) {
  import ctx._
  private val spark = ctx.spark()
  import spark.implicits._
  private val events: Dataset[EdgeEvent] = {
    val sc = spark.sparkContext
    spark.createDataset(sc.parallelize(in.stream, sc.defaultParallelism)).cache()
  }
  require(events.count() == in.stream.length, "cached Dataset lost events")
  private var sketch: VOSSketch = _

  override def steps: Int = 1
  override def warmupSteps: Int = 1
  def startPass(): Unit = ()

  def step(c: Int): StepTiming = {
    val t0 = System.nanoTime()
    sketch = tracer.span("VOSAggregator.build")(VOSAggregator.build(events, in.hashes))
    val ingest = System.nanoTime() - t0
    // All tracked pairs, not the 8 probe pairs: 8 estimates (about 2 ms)
    // right after a Spark job swung with the host's noise far more.
    val cp = scorePairs(ref.last, sketch, in.pairs)
    probeSketchOps()
    corrupt.foreach(Corrupt(_, sketch))
    checks.array("array", sketch, ref.words(ref.last))
    checks.counters("counters", sketch, ref.counts(ref.last))
    StepTiming(in.stream.length, ingest, cp)
  }

  /** Traced run only: the parts of an `Aggregator` build done on the driver. */
  private def probeSketchOps(): Unit = if (tracer.enabled) {
    val enc = Workload.bufferEncoder(in.hashes)
    val ser = enc.createSerializer()
    val de  = enc.resolveAndBind().createDeserializer()
    val back = tracer.span("VOSAggregator.buffer_roundtrip")(de(ser(sketch)))
    checks.array("array", back, ref.words(ref.last))
    val copy = tracer.span("VOSSketch.copyOf")(sketch.copyOf())
    tracer.span("VOSSketch.merge")(new VOSSketch(in.hashes).merge(copy))
    ()
  }

  override def close(): Unit = { events.unpersist(); () }

  def finalSketch: VOSSketch = sketch
}
