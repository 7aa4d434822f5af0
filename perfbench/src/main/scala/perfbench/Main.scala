package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import repro.core.VOSSketch

/** One benchmark run in this JVM:
  *
  * {{{
  * perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *                [--size full|small] [--corrupt <kind>]
  * }}}
  *
  * Sets up `Setups` times (each: generate inputs and reference truth, start
  * Spark where the workload uses it, warm up) and reports the median as
  * `setup_s`. After each set-up it runs whole passes over the stream, until
  * that set-up's share of `--seconds` of measured time; it checks every
  * step and prints one JSON result as the last line.
  */
object Main {

  val Setups = 3

  final case class Args(
      workload: String,
      seed: Long,
      seconds: Double,
      trace: Boolean,
      size: String,
      corrupt: Option[String],
  ) {
    /** Scratch files, Spark directories and traces of the run. */
    def out: File = new File(".bench_build/run")
  }

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument ${other.mkString(" ")}")
    }.toMap
    val known = Set("workload", "seed", "seconds", "trace", "size", "corrupt")
    require(kv.keySet.subsetOf(known), s"unknown option ${(kv.keySet -- known).mkString(", ")}")
    def required(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"--$k is required"))
    val a = Args(
      workload = required("workload"),
      seed     = required("seed").toLong,
      seconds  = required("seconds").toDouble,
      trace    = required("trace") == "1",
      size     = kv.getOrElse("size", "full"),
      corrupt  = kv.get("corrupt"),
    )
    require(Workload.names.contains(a.workload),
      s"unknown workload ${a.workload}; one of ${Workload.names.mkString(", ")}")
    require(a.corrupt.forall(Corrupt.kinds.contains), s"unknown --corrupt ${a.corrupt.get}")
    require(a.seconds > 0, "--seconds must be positive")
    a
  }

  def sparkThreads: Int = math.min(4, Runtime.getRuntime.availableProcessors())

  private var session: Option[SparkSession] = None

  private def spark(scratch: File, tracer: Tracer)(): SparkSession = session.getOrElse {
    val s = tracer.span("spark.start")(SparkSession.builder
      .master(s"local[$sparkThreads]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", sparkThreads.toString)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(scratch, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(scratch, "spark-warehouse").getPath)
      .getOrCreate())
    s.sparkContext.setLogLevel("WARN")
    session = Some(s)
    s
  }

  private def stopSpark(): Unit = { session.foreach(_.stop()); session = None }

  /** The run's pinned settings, printed beside the result. */
  def settings(a: Args, in: Inputs): Seq[(String, Any)] = {
    val rt = ManagementFactory.getRuntimeMXBean
    val heapFlags = rt.getInputArguments.asScala.filter(f => f.startsWith("-Xm") || f.startsWith("-XX:+Use"))
    Seq(
      "workload" -> a.workload, "seed" -> a.seed, "seconds" -> a.seconds, "trace" -> a.trace,
      "size" -> a.size, "events" -> in.stream.length, "users" -> in.numUsers,
      "k_vos" -> in.hashes.k, "m_bits" -> in.hashes.m, "pairs" -> in.pairs.length,
      "probe_pairs" -> in.probePairs.length, "checkpoints" -> in.bounds.length,
      "stream_batch_events" -> in.bounds(StreamWorkload.ChunksPerBatch - 1),
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "jvm_flags" -> heapFlags.mkString(" "),
      "gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString("+"),
      "nproc" -> Runtime.getRuntime.availableProcessors(),
      "spark" -> org.apache.spark.SPARK_VERSION,
      "spark_master" -> (if (Workload.usesSpark(a.workload)) s"local[$sparkThreads]" else "none"),
      "shuffle_partitions" -> sparkThreads,
      "stream_groups" -> StreamWorkload.Groups,
    )
  }

  final class Run(val wl: Workload, val ctx: Ctx)

  /** Generate everything, start the workload and warm it up. */
  def setUp(a: Args, tracer: Tracer, checks: Checks): Run = tracer.span("setup") {
    val in  = Inputs.generate(a.size, a.seed, tracer)
    val ref = tracer.span("reference")(new Reference(in, in.pairs))
    require(java.util.Arrays.equals(ref.finalEdgeWords, ref.words(ref.last)),
      "reference: final-edge-set array differs from the replayed array")
    val ctx = new Ctx(in, ref, tracer, checks, a.corrupt, spark(a.out, tracer) _, a.out)
    val wl  = tracer.span("start")(Workload(a.workload, ctx))
    tracer.span("warmup") {
      wl.startPass()
      (0 until wl.warmupSteps).foreach(wl.step)
      wl.endPass()
    }
    new Run(wl, ctx)
  }

  /** What the measured passes of a run add up to, over all segments. */
  final class Tally {
    var attempted, failed, passes = 0
    var edges, ingestNs, replayNs, elapsedNs = 0L
    val checkpointNs = mutable.ArrayBuffer.empty[Long]
    /** Sketch and summary line of the last whole pass. */
    var lastSketch: Option[VOSSketch] = None
    var lastSummary: Option[String] = None
    var firstError: Option[String] = None
  }

  /** Whole passes until the run's measured time reaches `untilSeconds`: a
    * pass starts only if it would end less than half a pass past it. The
    * first pass of a run always starts.
    */
  def measure(run: Run, tally: Tally, untilSeconds: Double, maxSteps: Int = Int.MaxValue): Unit = {
    val wl = run.wl
    val checks = run.ctx.checks
    val tracer = run.ctx.tracer
    val until = (untilSeconds * 1e9).toLong
    def more = tally.passes == 0 || tally.elapsedNs + tally.elapsedNs / tally.passes / 2 < until
    while (more && tally.attempted < maxSteps) {
      val t0 = System.nanoTime()
      tracer.span("pass") {
        wl.startPass()
        var c = 0
        while (c < wl.steps && tally.attempted < maxSteps) {
          checks.beginStep()
          val ok = try {
            val t = tracer.span("step")(wl.step(c))
            tally.edges += t.edges
            tally.ingestNs += t.ingestNs
            tally.replayNs += t.ingestNs + t.checkpointNs
            tally.checkpointNs += t.checkpointNs
            checks.stepPassed
          } catch {
            case NonFatal(e) =>
              // A step that throws counts as failed; no output of it is
              // checked, so it leaves `correct` alone.
              if (tally.firstError.isEmpty) tally.firstError = Some(s"step $c threw $e")
              false
          }
          tally.attempted += 1
          if (!ok) tally.failed += 1
          c += 1
        }
        tally.lastSketch = Option(wl.finalSketch)
        tally.lastSummary = wl.passSummary
        wl.endPass()
      }
      tally.elapsedNs += System.nanoTime() - t0
      tally.passes += 1
    }
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  def endToEnd(m: Tally, setupS: Seq[Double], sketchBytes: Long): Seq[(String, Double, String)] = Seq(
    ("setup_s", median(setupS), "s"),
    ("ingest_edges_per_s", m.edges / (m.ingestNs / 1e9), "edges/s"),
    ("checkpoint_ms", median(m.checkpointNs.map(_ / 1e6).toSeq), "ms"),
    ("replay_s", m.replayNs / 1e9 / m.passes, "s"),
    ("sketch_bytes", sketchBytes.toDouble, "bytes"),
  )

  def json(v: Any): String = v match {
    case s: String  => "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
    case d: Double  => if (d.isNaN || d.isInfinite) "null" else d.toString
    case b: Boolean => b.toString
    case n: Number  => n.toString
    case o          => json(o.toString)
  }

  def metricsJson(ms: Seq[(String, Double, String)]): String =
    ms.map { case (n, v, u) => s"${json(n)}: {\"value\": ${json(v)}, \"unit\": ${json(u)}}" }.mkString("{", ", ", "}")

  def main(argv: Array[String]): Unit = {
    val a = try parse(argv) catch {
      case e: IllegalArgumentException => System.err.println(e.getMessage); sys.exit(2)
    }
    a.out.mkdirs()
    val tracer = new Tracer(a.trace)
    val checks = new Checks
    try {
      // Measurement runs in one segment after each set-up, so the measured
      // time is spread over the whole run and samples more of the host's
      // slow and fast periods than one block would.
      val m = new Tally
      val setups = (1 to Setups).map { i =>
        val t0 = System.nanoTime()
        val r = setUp(a, tracer, checks)
        val s = (System.nanoTime() - t0) / 1e9
        if (i == 1)
          println("settings " + settings(a, r.ctx.in).map { case (k, v) => s"${json(k)}: ${json(v)}" }.mkString("{", ", ", "}"))
        tracer.span("measure")(measure(r, m, a.seconds * i / Setups))
        if (i < Setups) { r.wl.close(); stopSpark() }
        (r, s)
      }
      val run = setups.last._1
      val bytes = m.lastSketch.map(Workload.bufferBytes(run.ctx.in.hashes, _).length.toLong).getOrElse(0L)
      val e2e = endToEnd(m, setups.map(_._2), bytes)
      m.lastSummary.foreach(println)
      println(s"passes ${m.passes} steps ${m.attempted}")
      m.firstError.foreach(e => println(s"failed-step $e"))
      if (checks.failedChecks.nonEmpty)
        println("failed-checks " + checks.failedChecks.map { case (k, v) => s"$k: $v" }.mkString(" | "))

      val metrics =
        if (!a.trace) e2e
        else {
          println("traced-end-to-end " + metricsJson(e2e))
          val own = PerLayer.reached(tracer)
          sweepOtherLayers(a, run, tracer)
          // The result must name every per-layer metric; these few-sample
          // figures stand in for layers this workload does not reach.
          println("swept-layers " + PerLayer.names.map(_._1).filterNot(own).mkString(" "))
          val file = new File(a.out, s"trace-${a.workload}-seed${a.seed}.jsonl")
          tracer.writeTo(file)
          println(s"trace-file ${file.getPath}")
          PerLayer.metrics(tracer)
        }
      run.wl.close()
      stopSpark()
      println(s"{\"correct\": ${checks.failedChecks.isEmpty}, \"attempted\": ${m.attempted}, " +
        s"\"failed\": ${m.failed}, \"metrics\": ${metricsJson(metrics)}}")
    } catch {
      case NonFatal(e) =>
        e.printStackTrace()
        stopSpark()
        sys.exit(1)
    }
  }

  /** Traced run only: a short run of every other workload on the same
    * inputs (warm-up, then one pass of at most a few steps), so layers this
    * workload does not reach still report a figure. Its spans fill only
    * names the workload's own run left empty.
    */
  def sweepOtherLayers(a: Args, run: Run, tracer: Tracer): Unit = {
    val sideChecks = new Checks
    Workload.names.filterNot(_ == a.workload).foreach { name =>
      val side = new Tracer(true)
      val ctx  = new Ctx(run.ctx.in, run.ctx.ref, side, sideChecks, None, spark(a.out, side) _, a.out)
      val wl   = Workload(name, ctx)
      wl.startPass()
      (0 until wl.warmupSteps).foreach(wl.step)
      wl.endPass()
      side.reset()
      measure(new Run(wl, ctx), new Tally, untilSeconds = 0, maxSteps = 2)
      wl.close()
      tracer.absorbMissing(side)
    }
    require(sideChecks.failedChecks.isEmpty, s"layer sweep failed checks: ${sideChecks.failedChecks}")
  }
}
