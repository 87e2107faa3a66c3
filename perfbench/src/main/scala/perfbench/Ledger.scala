package perfbench

import repro.core.{ConfigValues, ExecResult, Trial, TuningObjective, TuningResult}
import scala.collection.mutable.ArrayBuffer

/** Failure accounting at the benchmark boundary: every objective call,
  * session and correctness check is one attempt.
  */
final class Tally {
  var attempted = 0L
  var failed = 0L
  val messages = ArrayBuffer.empty[String]

  /** Counts one check; records `what` when it fails. */
  def check(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) fail(what)
  }

  def fail(what: String): Unit = {
    failed += 1
    if (messages.size < 50) messages += what
  }
}

/** Host-time ledger of one tuning session, filled by [[TimedObjective]].
  * `decideNs(i)` is the time from the end of call i-1 (or from the session
  * start) to the start of call i; `trialNs(i)` is the duration of call i.
  */
final class SessionLedger(val label: String) {
  val startNs: Long = System.nanoTime()
  var endNs: Long = startNs
  private[perfbench] var lastEndNs: Long = startNs
  val decideNs = ArrayBuffer.empty[Long]
  val trialNs = ArrayBuffer.empty[Long]
  var objectiveNs = 0L
  var paidSeconds = 0.0
  var fullCalls = 0L
  var rqaCalls = 0L
  var queriesRun = 0L
  var rqaQueriesRun = 0L
  var failedCalls = 0L
  var badSubsets = 0L
  val results = ArrayBuffer.empty[ExecResult]

  def calls: Long = fullCalls + rqaCalls
  def wallNs: Long = endNs - startNs
  /** The tuner's own host time: the session minus its objective calls. */
  def tunerNs: Long = wallNs - objectiveNs
}

/** Wraps a tuner's objective: times each call and the tuner's gap before it,
  * counts queries, checks every reduced-query subset against the
  * application's queries and opens one span per call.
  */
final class TimedObjective(inner: TuningObjective, ledger: SessionLedger, tracer: Tracer,
                           tally: Tally, keepResults: Boolean = false) extends TuningObjective {
  private val appQueries = inner.queries
  private val appQuerySet = appQueries.toSet

  override def queries: Seq[String] = appQueries
  override def workloadName: String = inner.workloadName

  override def run(conf: ConfigValues, datasizeGB: Double, subset: Option[Seq[String]] = None): ExecResult = {
    val t0 = System.nanoTime()
    ledger.decideNs += t0 - ledger.lastEndNs
    val nQueries = subset.fold(appQueries.size)(_.size)
    subset match {
      case Some(s) =>
        ledger.rqaCalls += 1
        ledger.rqaQueriesRun += s.size
        if (!s.forall(appQuerySet)) ledger.badSubsets += 1
      case None => ledger.fullCalls += 1
    }
    ledger.queriesRun += nQueries
    tally.attempted += 1
    val span = tracer.begin("objective.run")
    try {
      val r = inner.run(conf, datasizeGB, subset)
      ledger.paidSeconds += r.totalSeconds
      if (keepResults) ledger.results += r
      r
    } catch {
      case e: Exception =>
        ledger.failedCalls += 1
        tally.fail(s"${ledger.label}: objective call threw $e")
        throw e
    } finally {
      val t1 = System.nanoTime()
      tracer.end(span, Map("queries" -> nQueries.toDouble, "rqa" -> (if (subset.isDefined) 1.0 else 0.0)))
      ledger.trialNs += t1 - t0
      ledger.objectiveNs += t1 - t0
      ledger.lastEndNs = t1
    }
  }
}

/** Checks shared by every workload's sessions. */
private[perfbench] object SessionChecks {
  /** `optimizationSeconds` must equal the Σ of the step's trials' `costSeconds`,
    * and the ledger must have seen exactly what the tuner says it paid.
    */
  def check(label: String, steps: Seq[(TuningResult, Seq[Trial])], ledger: SessionLedger, tally: Tally): Unit = {
    steps.foreach { case (r, newTrials) =>
      val sum = newTrials.map(_.costSeconds).sum
      tally.check(Summary.close(r.optimizationSeconds, sum),
        s"$label: optimizationSeconds ${r.optimizationSeconds} != Σ trial cost $sum")
    }
    val reported = steps.map(_._1.optimizationSeconds).sum
    tally.check(Summary.close(ledger.paidSeconds, reported),
      s"$label: objective calls paid ${ledger.paidSeconds} s, tuner reports $reported s")
    tally.check(ledger.badSubsets == 0, s"$label: ${ledger.badSubsets} RQA subsets outside the application")
  }
}
