package perfbench

import org.scalatest.funsuite.AnyFunSuite

class SummarySpec extends AnyFunSuite {

  test("a percentile is reported only with at least ten samples beyond it") {
    val xs = (1 to 19).map(_.toDouble)
    assert(Summary.percentile(xs, 50).isEmpty) // rank 10 of 19: 9 beyond
    assert(Summary.percentile(xs :+ 20.0, 50).contains(10.0)) // rank 10 of 20: 10 beyond
    val ys = (1 to 99).map(_.toDouble)
    assert(Summary.percentile(ys, 90).isEmpty) // rank 90 of 99: 9 beyond
    assert(Summary.percentile(ys :+ 100.0, 90).contains(90.0))
    assert(Summary.percentile(Nil, 50).isEmpty)
  }

  test("percentiles use nearest rank on unsorted input") {
    val xs = (1 to 200).map(i => ((i * 37) % 200 + 1).toDouble)
    assert(Summary.percentile(xs, 50).contains(100.0))
    assert(Summary.percentile(xs, 90).contains(180.0))
  }

  test("median of odd and even counts") {
    assert(Summary.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Summary.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assertThrows[IllegalArgumentException](Summary.median(Nil))
  }

  test("geomean") {
    assert(math.abs(Summary.geomean(Seq(2.0, 8.0)) - 4.0) < 1e-12)
    assert(math.abs(Summary.geomean(Seq(5.0)) - 5.0) < 1e-12)
    assertThrows[IllegalArgumentException](Summary.geomean(Seq(1.0, 0.0)))
    assertThrows[IllegalArgumentException](Summary.geomean(Nil))
  }

  test("self time is the span minus the union of its children, clipped to the span") {
    val children = Seq((10L, 20L), (15L, 30L), (90L, 120L), (-5L, 2L))
    assert(Summary.selfNs(0L, 100L, children) == 100L - (20L + 10L + 2L))
    assert(Summary.selfNs(0L, 100L, Nil) == 100L)
    assert(Summary.selfNs(0L, 100L, Seq((0L, 100L), (20L, 40L))) == 0L)
  }

  test("tracer: a session's self time equals its span minus its objective-call children") {
    val t = new Tracer(true)
    val session = t.begin("session")
    (1 to 3).foreach { _ =>
      val c = t.begin("objective.run")
      Thread.sleep(2)
      t.end(c)
    }
    t.end(session)
    val s = t.spans.find(_.name == "session").get
    val kids = t.children(s.id)
    assert(kids.size == 3 && kids.forall(_.parent == s.id))
    assert(t.selfNs(s) == s.durNs - kids.map(_.durNs).sum)
  }

  test("a disabled tracer records nothing") {
    val t = new Tracer(false)
    val x = t.begin("x")
    t.end(t.begin("y"))
    t.end(x)
    assert(t.spans.isEmpty)
  }
}
