package repro.core

import org.scalatest.funsuite.AnyFunSuite

class TrialLogSpec extends AnyFunSuite {

  test("run executes the objective once and books the trial and its cost") {
    val obj = TestObjectives.synthetic(1)
    val log = new TrialLog(obj)
    val conf = obj.space.defaults
    val full = log.run(conf, 100.0)
    val rqa = log.run(conf, 200.0, Some(Seq("sens1")))
    assert(obj.runCount == 2)
    assert(log.trials == Vector(full, rqa))
    assert(full.fullApp && !rqa.fullApp && rqa.datasizeGB == 200.0)
    assert(rqa.result.perQuerySeconds.keySet == Set("sens1"))
    assert(full.costSeconds == full.result.totalSeconds)
    assert(log.cost == full.costSeconds + rqa.costSeconds)
  }

  test("best is the first fastest trial; result reports the chosen trial over the whole history") {
    val obj = TestObjectives.synthetic(2)
    val log = new TrialLog(obj)
    val slow = log.run(obj.space.defaults.updated("knob.one", 0), 100.0)
    val fast = log.run(obj.space.defaults.updated("knob.one", 100), 100.0)
    log.record(fast.copy(fullApp = false))
    assert(log.best eq fast)
    val r = log.result()
    assert(r.bestConf == fast.conf && r.bestTimeSeconds == fast.result.totalSeconds)
    assert(r.optimizationSeconds == log.cost && r.trials.size == 3)
    assert(log.result(slow).bestConf == slow.conf)
  }
}
