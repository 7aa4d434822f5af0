package perfbench

/** The traced run's per-layer metrics, named `<module>.<metric>`.
  *
  * `*_ns` and `*_us` figures of per-edge or per-pair calls are a loop's
  * total time over its call count; `*_ms` and `*_s` figures are medians of
  * span durations; the streaming sizes are medians over micro-batches.
  */
object PerLayer {

  private sealed trait Source
  private final case class PerCall(span: String, scale: Double) extends Source
  private final case class SpanMedian(span: String, scale: Double) extends Source
  private final case class GaugeMedian(gauge: String) extends Source
  private case object CounterSelf extends Source

  private val Ns = 1.0
  private val Us = 1e-3
  private val Ms = 1e-6
  private val S  = 1e-9

  private val defs: Seq[(String, String, Source)] = Seq(
    ("Hashing.position_ns", "ns", PerCall("Hashing.position", Ns)),
    ("BitArray.flip_ns", "ns", PerCall("BitArray.flip", Ns)),
    ("VOSSketch.update_ns", "ns", PerCall("VOSSketch.update", Ns)),
    ("VOSSketch.counter_self_ns", "ns", CounterSelf),
    ("MinHashDyn.update_ns", "ns", PerCall("MinHashDyn.update", Ns)),
    ("OPHDyn.update_ns", "ns", PerCall("OPHDyn.update", Ns)),
    ("RandomPairing.update_ns", "ns", PerCall("RandomPairing.update", Ns)),
    ("ExactSim.update_ns", "ns", PerCall("ExactSim.update", Ns)),
    ("VOSSketch.estimate_us", "us", PerCall("VOSSketch.estimate", Us)),
    ("VOSSketch.rebuildOddSketch_us", "us", PerCall("VOSSketch.rebuildOddSketch", Us)),
    ("BitArray.hammingDistance_ns", "ns", PerCall("BitArray.hammingDistance", Ns)),
    ("VOSEstimator.estimate_ns", "ns", PerCall("VOSEstimator.estimate", Ns)),
    ("MinHashDyn.estimatePair_us", "us", PerCall("MinHashDyn.estimatePair", Us)),
    ("OPHDyn.estimatePair_us", "us", PerCall("OPHDyn.estimatePair", Us)),
    ("RandomPairing.estimatePair_us", "us", PerCall("RandomPairing.estimatePair", Us)),
    ("ExactSim.commonItems_us", "us", PerCall("ExactSim.commonItems", Us)),
    ("Metrics.score_us", "us", PerCall("Metrics.score", Us)),
    ("VOSAggregator.build_ms", "ms", SpanMedian("VOSAggregator.build", Ms)),
    ("VOSAggregator.buffer_roundtrip_ms", "ms", SpanMedian("VOSAggregator.buffer_roundtrip", Ms)),
    ("VOSSketch.merge_ms", "ms", SpanMedian("VOSSketch.merge", Ms)),
    ("VOSSketch.copyOf_ms", "ms", SpanMedian("VOSSketch.copyOf", Ms)),
    ("VOSStreaming.batch_ms", "ms", SpanMedian("VOSStreaming.batch", Ms)),
    ("VOSStreaming.state_rows_updated", "count", GaugeMedian("VOSStreaming.state_rows_updated")),
    ("VOSStreaming.state_bytes", "bytes", GaugeMedian("VOSStreaming.state_bytes")),
    ("VOSStreaming.sink_bytes", "bytes", GaugeMedian("VOSStreaming.sink_bytes")),
    ("VOSStreaming.state_bytes_per_edge", "bytes/edge", GaugeMedian("VOSStreaming.state_bytes_per_edge")),
    ("VOSStreaming.assemble_ms", "ms", SpanMedian("VOSStreaming.assemble", Ms)),
    ("GraphGen.baseEdges_s", "s", SpanMedian("GraphGen.baseEdges", S)),
    ("DynamicStreamGen.generate_s", "s", SpanMedian("DynamicStreamGen.generate", S)),
    ("Harness.prepare_s", "s", SpanMedian("Harness.prepare", S)),
  )

  /** (name, unit) of every per-layer metric, in report order. */
  def names: Seq[(String, String)] = defs.map { case (n, u, _) => (n, u) }

  /** Names of the metrics `t` has recorded data for. */
  def reached(t: Tracer): Set[String] = defs.collect { case (name, _, src) if recorded(t, src) => name }.toSet

  private def recorded(t: Tracer, src: Source): Boolean = src match {
    case PerCall(span, _)    => t.nsPerCall(span).nonEmpty
    case SpanMedian(span, _) => t.durations(span).nonEmpty
    case GaugeMedian(g)      => t.gaugeValues(g).nonEmpty
    case CounterSelf         => Seq("VOSSketch.update", "Hashing.position", "BitArray.flip").forall(t.nsPerCall(_).nonEmpty)
  }

  private def perCall(t: Tracer, span: String): Double =
    t.nsPerCall(span).getOrElse(throw new IllegalStateException(s"no calls recorded for $span"))

  def metrics(t: Tracer): Seq[(String, Double, String)] = defs.map { case (name, unit, src) =>
    val v = src match {
      case PerCall(span, scale)    => perCall(t, span) * scale
      case SpanMedian(span, scale) =>
        val d = t.durations(span)
        require(d.nonEmpty, s"no spans recorded for $span")
        Main.median(d) * scale
      case GaugeMedian(g) =>
        val vs = t.gaugeValues(g)
        require(vs.nonEmpty, s"no values recorded for $g")
        Main.median(vs)
      case CounterSelf =>
        perCall(t, "VOSSketch.update") - perCall(t, "Hashing.position") - perCall(t, "BitArray.flip")
    }
    (name, v, unit)
  }
}
