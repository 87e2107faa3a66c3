package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ConfigValues, ExecResult, TuningObjective}

class LedgerSpec extends AnyFunSuite {

  private final class Fake(failOn: Int) extends TuningObjective {
    var n = 0
    override def queries: Seq[String] = Seq("a", "b", "c")
    override def workloadName: String = "fake"
    override def run(conf: ConfigValues, ds: Double, subset: Option[Seq[String]]): ExecResult = {
      n += 1
      if (n == failOn) throw new IllegalStateException("boom")
      ExecResult(subset.getOrElse(queries).map(_ -> 1.5).toMap, 0.0)
    }
  }

  test("the ledger times every call, counts queries and flags foreign subsets") {
    val tally = new Tally
    val ledger = new SessionLedger("s")
    val obj = new TimedObjective(new Fake(failOn = -1), ledger, new Tracer(false), tally)
    val conf = ConfigValues(Map.empty)
    obj.run(conf, 1.0)
    obj.run(conf, 1.0, Some(Seq("a", "b")))
    obj.run(conf, 1.0, Some(Seq("a", "zz")))
    ledger.endNs = System.nanoTime()
    assert(ledger.calls == 3 && ledger.fullCalls == 1 && ledger.rqaCalls == 2)
    assert(ledger.queriesRun == 7 && ledger.rqaQueriesRun == 4)
    assert(ledger.badSubsets == 1)
    assert(ledger.paidSeconds == 1.5 * 7)
    assert(ledger.decideNs.size == 3 && ledger.trialNs.size == 3)
    assert(ledger.tunerNs == ledger.wallNs - ledger.trialNs.sum)
    assert(ledger.decideNs.sum + ledger.trialNs.sum <= ledger.wallNs)
    assert(tally.attempted == 3 && tally.failed == 0)
  }

  test("a call that throws is counted as a failed attempt and rethrown") {
    val tally = new Tally
    val ledger = new SessionLedger("s")
    val obj = new TimedObjective(new Fake(failOn = 2), ledger, new Tracer(true), tally)
    obj.run(ConfigValues(Map.empty), 1.0)
    assertThrows[IllegalStateException](obj.run(ConfigValues(Map.empty), 1.0))
    assert(tally.attempted == 2 && tally.failed == 1 && ledger.failedCalls == 1)
    assert(ledger.trialNs.size == 2)
  }
}
