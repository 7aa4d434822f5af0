package perfbench

import scala.collection.mutable
import repro.core.VOSSketch

/** Output checks of one run. A step fails when any check in it fails or it
  * throws; `failedChecks` names each check that ever failed.
  */
final class Checks {
  val failedChecks = mutable.LinkedHashMap.empty[String, String]
  private var stepOk = true

  def beginStep(): Unit = stepOk = true

  /** True when no check failed since [[beginStep]]. */
  def stepPassed: Boolean = stepOk

  def check(name: String, ok: Boolean, detail: => String): Unit =
    if (!ok) {
      stepOk = false
      if (!failedChecks.contains(name)) failedChecks(name) = detail
    }

  /** n_u of every user in `expected` and no other user. */
  def counters(name: String, sketch: VOSSketch, expected: Map[Long, Long]): Unit = {
    val got = sketch.nU
    val bad = expected.iterator.count { case (u, n) => got.getOrElse(u, 0L) != n } +
      got.keysIterator.count(u => !expected.contains(u))
    check(name, bad == 0, s"$bad users' counters differ from the reference")
  }

  /** The shared array equals the reference words bit for bit. */
  def array(name: String, sketch: VOSSketch, words: Array[Long]): Unit = {
    val d = Reference.bitsDiffering(sketch.array, words)
    check(name, d == 0, s"$d array bits differ from the reference")
  }
}

/** A deliberate fault injected into a program output before it is checked,
  * so the self-test can show each check catches it.
  */
object Corrupt {
  /** Kinds of fault; `run.py selftest` holds the check each must trip.
    *  - bit: flip one array bit of the sketch
    *  - counter: add one to one user's n_u
    *  - beta: complement the array, so β > 1/2
    *  - truth: add one to one exact s_{u,v}
    *  - order: swap VOS's and RP's final estimates
    *  - aape: double VOS's final ŝ
    */
  val kinds: Set[String] = Set("bit", "counter", "beta", "truth", "order", "aape")

  def apply(kind: String, sketch: VOSSketch): Unit = kind match {
    case "bit"     => sketch.array.flip(0); ()
    case "counter" =>
      val u = sketch.nU.keys.min
      sketch.nU(u) = sketch.nU(u) + 1
    case "beta" =>
      var i = 0
      while (i < sketch.array.numBits) { sketch.array.flip(i); i += 1 }
    case _ => ()
  }
}
