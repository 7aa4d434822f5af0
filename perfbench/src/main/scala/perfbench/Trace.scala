package perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** In-memory span recorder for the traced run.
  *
  * A span is one timed call into a program layer: name, start, end and the
  * span that was open when it began. Calls made once per edge are not
  * spans; the benchmark times a whole loop of them and keeps a count and a
  * total per name ([[calls]]). Per-batch figures that are sizes or counts
  * go to [[gauge]]. Nothing is written until [[writeTo]] at the end of a
  * run. A disabled tracer records nothing and costs one branch per call.
  */
final class Tracer(val enabled: Boolean) {
  import Tracer.Span

  private val spans  = mutable.ArrayBuffer.empty[Span]
  private var open   = List.empty[Int]
  private var nextId = 0
  private val callCount = mutable.HashMap.empty[String, Long].withDefaultValue(0L)
  private val callNs    = mutable.HashMap.empty[String, Long].withDefaultValue(0L)
  private val gauges    = mutable.HashMap.empty[String, mutable.ArrayBuffer[Double]]

  /** Run `body` inside a span named `name`. */
  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open = open.tail
        spans += Span(id, parent, name, t0, t1)
      }
    }

  /** Time a loop of `count` calls of one layer function; the loop runs
    * only when tracing, so it must be work the untraced run does not need.
    */
  def calls(name: String, count: Long)(loop: => Unit): Unit =
    if (enabled) {
      val t0 = System.nanoTime()
      loop
      record(name, count, System.nanoTime() - t0)
    }

  /** Add a loop of `count` calls that took `ns` in total. */
  def record(name: String, count: Long, ns: Long): Unit =
    if (enabled) {
      callNs(name) += ns
      callCount(name) += count
    }

  /** Record one observation of a size or count. */
  def gauge(name: String, value: Double): Unit =
    if (enabled) gauges.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += value

  /** Durations in ns of every span named `name`. */
  def durations(name: String): Seq[Double] =
    spans.iterator.filter(_.name == name).map(s => (s.endNs - s.startNs).toDouble).toSeq

  /** Mean ns per call of a loop recorded with [[calls]]. */
  def nsPerCall(name: String): Option[Double] =
    if (callCount(name) == 0) None else Some(callNs(name).toDouble / callCount(name))

  def gaugeValues(name: String): Seq[Double] = gauges.get(name).map(_.toSeq).getOrElse(Nil)

  /** Forget everything recorded so far. */
  def reset(): Unit = {
    spans.clear(); open = Nil; nextId = 0
    callCount.clear(); callNs.clear(); gauges.clear()
  }

  /** Fill layers this tracer has not seen from `other`. */
  def absorbMissing(other: Tracer): Unit = {
    val mine = spans.iterator.map(_.name).toSet
    val base = nextId
    other.spans.foreach { s =>
      if (!mine(s.name)) {
        spans += s.copy(id = s.id + base, parent = if (s.parent < 0) -1 else s.parent + base)
        nextId = math.max(nextId, s.id + base + 1)
      }
    }
    other.callCount.foreach { case (n, c) =>
      if (!callCount.contains(n)) { callCount(n) = c; callNs(n) = other.callNs(n) }
    }
    other.gauges.foreach { case (n, vs) => if (!gauges.contains(n)) gauges(n) = vs }
  }

  /** Write spans (one JSON object a line), then call totals and gauges. */
  def writeTo(file: File): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try {
      spans.sortBy(_.id).foreach { s =>
        out.println(s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","start_ns":${s.startNs},"end_ns":${s.endNs}}""")
      }
      callCount.keys.toSeq.sorted.foreach { n =>
        out.println(s"""{"calls":"$n","count":${callCount(n)},"total_ns":${callNs(n)}}""")
      }
      gauges.keys.toSeq.sorted.foreach { n =>
        out.println(s"""{"gauge":"$n","values":[${gauges(n).mkString(",")}]}""")
      }
    } finally out.close()
  }
}

object Tracer {
  final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long)
}
