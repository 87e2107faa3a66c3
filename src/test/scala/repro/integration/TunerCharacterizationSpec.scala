package repro.integration

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines._
import repro.core._

/** Pins every tuner's random-draw order: small-budget runs on the synthetic
  * objective must reproduce the trial count, optimization seconds and best
  * configuration recorded before the tuners shared one trial log and one
  * EI-argmax path. Moving, adding or dropping a single RNG draw changes them.
  */
class TunerCharacterizationSpec extends AnyFunSuite {
  import TunerCharacterizationSpec.Pinned

  private def check(r: TuningResult, want: Pinned): Unit = {
    assert(r.trials.size == want.trials)
    assert(math.abs(r.optimizationSeconds - want.optSeconds) <= 1e-9 * want.optSeconds,
      s"optimizationSeconds ${r.optimizationSeconds} != ${want.optSeconds}")
    val (one, two, a, b, c, d) = want.best
    assert(r.bestConf.values == Map("knob.one" -> one, "knob.two" -> two,
      "noise.a" -> a, "noise.b" -> b, "noise.c" -> c, "noise.d" -> d))
  }

  private def oneShot(t: Tuner, seed: Long): TuningResult = {
    val obj = TestObjectives.synthetic(seed)
    t.tune(obj, obj.space, 100.0, seed)
  }

  test("LOCAT one-shot") {
    check(oneShot(new Locat(nQcsa = 10, nIicp = 8, minIter = 3, maxIter = 6), 11),
      Pinned(14, 414.2827178772294, (97.0, 0.0, 4.0, 0.751459873266819, 0.0, 150.0)))
  }

  test("LocatSession tuneInitial then tuneNext") {
    val obj = TestObjectives.synthetic(12)
    val s = new LocatSession(obj, obj.space, seed = 12, nQcsa = 10, nIicp = 8, minIter = 3, maxIter = 6,
      nextMinIter = 2, nextMaxIter = 4)
    check(s.tuneInitial(100.0),
      Pinned(16, 458.13720970582847, (88.0, 0.0, 1.0, 0.7591839113804523, 1.0, 183.0)))
    check(s.tuneNext(300.0),
      Pinned(20, 70.0435023371507, (90.0, 0.019852242053189917, 5.0, 0.9263599857652247, 1.0, 141.0)))
  }

  test("Tuneful") {
    check(oneShot(new Tuneful(saRounds = 1, samplesPerRound = 6, keepParams = 3, boIters = 5), 13),
      Pinned(14, 664.137136572778, (91.0, 0.4001516611740866, 8.0, 0.8870776924552658, 1.0, 196.0)))
  }

  test("DAC") {
    check(oneShot(new Dac(nSamples = 20, gaCandidates = 2, nTrees = 20), 14),
      Pinned(22, 1249.581841161693, (94.0, 0.20208199160493961, 7.0, 0.5669630972999581, 1.0, 139.0)))
  }

  test("GBO-RL") {
    val g = new GboRl(nInit = 3, boIters = 6, clusterMemGB = 1e9, clusterCores = Int.MaxValue / 2, workerNodes = 3)
    check(oneShot(g, 15),
      Pinned(9, 365.5320441980697, (100.0, 0.08965107317123544, 9.0, 0.07989363993164642, 1.0, 84.0)))
  }

  test("QTune") {
    check(oneShot(new QTuneRl(episodes = 20, criticRefit = 5), 16),
      Pinned(20, 762.7902605471505, (97.0, 0.0, 0.0, 0.18307404693435336, 1.0, 194.0)))
  }

  test("RandomSearch") {
    check(oneShot(new RandomSearch(8), 17),
      Pinned(8, 395.6502285170836, (92.0, 0.2919049929087557, 2.0, 0.22103794807066268, 0.0, 88.0)))
  }

  test("Tuneful+QCSA+IICP graft") {
    val base = new Tuneful(saRounds = 1, samplesPerRound = 6, keepParams = 2, boIters = 4)
    check(oneShot(new QcsaIicpGraft(base, useQcsa = true, useIicp = true, nQcsa = 10, nIicp = 8), 18),
      Pinned(24, 1168.6773489151483, (100.0, 0.0, 5.0, 0.5, 1.0, 100.0)))
  }
}

object TunerCharacterizationSpec {
  /** Recorded outcome; `best` lists knob.one, knob.two, noise.a … noise.d. */
  final case class Pinned(trials: Int, optSeconds: Double, best: (Double, Double, Double, Double, Double, Double))
}
