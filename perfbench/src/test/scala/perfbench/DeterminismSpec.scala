package perfbench

import org.scalatest.funsuite.AnyFunSuite

class DeterminismSpec extends AnyFunSuite {

  private def oneRound(seed: Long): Map[String, Double] = {
    val w = new LocatOnline(seed)
    val tally = new Tally
    val outs = w.sessions.indices.map(i => Some(w.runSession(i, new Tracer(false), tally, round = 0)))
    assert(tally.failed == 0, tally.messages.mkString("; "))
    Main.endToEndMetrics(0.0, Seq(Main.Round(traced = false, outs, 0))).map(m => m.name -> m.value).toMap
  }

  test("two in-process runs at one seed give identical opt_sim_h and best_vs_default") {
    val a = oneRound(7L)
    val b = oneRound(7L)
    Seq("opt_sim_h", "best_vs_default").foreach { k =>
      assert(a.contains(k))
      assert(a(k) == b(k), k)
    }
    assert(oneRound(8L)("opt_sim_h") != a("opt_sim_h"))
  }
}
