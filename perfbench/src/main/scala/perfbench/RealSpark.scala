package perfbench

import java.io.File
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.{Oracle, SynthData}
import repro.core.{ConfigValues, LocatSession, Trial}
import repro.sparkexec.{LiteQueries, SparkObjective}

/** `real-spark`: LOCAT (nQcsa = 10, nIicp = 8, minIter = maxIter = 6, so
  * exactly 17 trials) on the live local Spark session over TPC-H-lite
  * Q1/Q3/Q5/Q6/Q12/Q13 plus HiBench AGG at SynthData SF 0.004 — the query
  * set of `RealSparkTuneBench`. Set-up starts Spark at `local[k]`,
  * k = min(4, cores), caches the tables and checks every query against the
  * DuckDB oracle. Seed 42 generates the same tables as that bench.
  */
final class RealSpark(seed: Long, workDir: File) extends Workload {
  override val name = "real-spark"
  private val sf = 0.004
  private val queries = LiteQueries.tpch.filter(q => Set("Q1", "Q3", "Q5", "Q6", "Q12", "Q13")(q.id)) :+
    LiteQueries.hibenchAggregation
  private val space = SparkObjective.runtimeSpace
  private var spark: SparkSession = _
  private var tables: Map[String, DataFrame] = Map.empty
  private var setUpMetrics: Seq[Metric] = Nil
  private var replaySource: Option[(LocatSession, Seq[Trial])] = None
  private var lastBest: Option[ConfigValues] = None

  override def sessions: Seq[String] = Seq("LOCAT/tpch-lite+AGG/local")
  override def setUpRepeats: Int = 1
  override def nominalRoundSeconds: Double = 10.0

  override def setUp(tally: Tally): Unit = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(workDir, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(workDir, "warehouse").getPath)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")

    val off = (seed - 42L) * 10L
    val t0 = System.nanoTime()
    tables = Map(
      "lineitem" -> SynthData.lineitem(spark, sf, 0 + off),
      "orders" -> SynthData.orders(spark, sf, 1 + off),
      "customer" -> SynthData.customer(spark, sf, 2 + off),
      "uservisits" -> SynthData.uservisits(spark, sf, 7 + off),
    ).map { case (k, v) => k -> v.cache() }
    val rows = tables.map { case (k, v) => k -> v.count() }
    val buildS = (System.nanoTime() - t0) / 1e9
    tables.foreach { case (n, df) => df.createOrReplaceTempView(n) }

    var verifyNs = 0L
    queries.foreach { q =>
      val t = System.nanoTime()
      val err = try { Oracle.assertEquivalent(spark.sql(q.sql), q.sql, q.tables.map(n => n -> tables(n)): _*); None }
                catch { case e: Exception => Some(e.toString) }
      verifyNs += System.nanoTime() - t
      tally.check(err.isEmpty, s"oracle: ${q.id} ${err.getOrElse("")}")
    }
    setUpMetrics = Seq(
      Metric("synthdata.build_s", buildS, "s"),
      Metric("oracle.verify_s", verifyNs / 1e9, "s"),
      Metric("oracle.rows_loaded", queries.map(_.tables.map(rows).sum).sum.toDouble, "count"),
    )
    session("warm-up", seed, new Tracer(false), tally)
  }

  override def runSession(i: Int, tracer: Tracer, tally: Tally, round: Int): SessionOutcome = {
    val (out, s, trials) = session(sessions(i), Workload.roundSeed(seed, round), tracer, tally)
    if (round == 0) replaySource = Some((s, trials))
    out
  }

  private def session(label: String, seed: Long, tracer: Tracer, tally: Tally): (SessionOutcome, LocatSession, Seq[Trial]) = {
    val span = tracer.begin("session")
    val ledger = new SessionLedger(label)
    val obj = new SparkObjective(spark, queries, tables, name = "tpch-lite-real")
    val s = new LocatSession(new TimedObjective(obj, ledger, tracer, tally, keepResults = true), space, seed,
      nQcsa = 10, nIicp = 8, minIter = 6, maxIter = 6)
    val r = try s.tuneInitial(sf) finally {
      ledger.endNs = System.nanoTime()
      tracer.end(span, Map("trials" -> ledger.calls.toDouble))
    }
    SessionChecks.check(label, Seq((r, r.trials)), ledger, tally)
    lastBest = Some(r.bestConf)
    val counters = Map(
      "sparkexec.gc_s" -> ledger.results.map(_.gcSeconds).sum,
      "core.full_trials" -> ledger.fullCalls.toDouble,
      "core.rqa_trials" -> ledger.rqaCalls.toDouble,
      "core.csq" -> s.qcsa.sensitive.size.toDouble,
      "core.iicp_kept" -> s.iicp.keptParams.size.toDouble,
      "core.kpca_dims" -> s.iicp.nFeatures.toDouble,
    )
    (SessionOutcome(label, ledger, None, counters), s, r.trials)
  }

  /** The tuned best configuration must return the same rows as the default
    * configuration, both canonicalized as `Oracle` does it.
    */
  override def finalChecks(outcomes: Seq[SessionOutcome], tally: Tally): Unit = lastBest.foreach { best =>
    val obj = new SparkObjective(spark, queries, tables)
    queries.foreach { q =>
      obj.applyConf(space.defaults)
      val want = RealSpark.canon(spark.sql(q.sql))
      obj.applyConf(best)
      val got = RealSpark.canon(spark.sql(q.sql))
      tally.check(got == want, s"tuned rows differ from default rows on ${q.id}")
    }
    obj.applyConf(space.defaults)
  }

  override def layerMetrics(outcomes: Seq[SessionOutcome], tracer: Tracer): Seq[Metric] = {
    val (s, trials) = replaySource.getOrElse(sys.error("no LOCAT session to replay"))
    val replay = new Replay(tracer, seed)
    val queryMs = outcomes.flatMap(_.ledger.results.flatMap(_.perQuerySeconds.values.map(_ * 1000.0)))
    val obj = new SparkObjective(spark, queries, tables)
    val applyMs = replay.timeMs("sparkexec.apply_conf") { obj.applyConf(space.defaults); 0.0 }
    def perSession(key: String) = Summary.median(outcomes.map(_.counters(key)))
    replay.locat(s, space, trials, nQcsa = 10, nIicp = 8) ++
      Summary.percentile(queryMs, 50).map(Metric("sparkexec.query_ms_p50", _, "ms")) ++
      Summary.percentile(queryMs, 90).map(Metric("sparkexec.query_ms_p90", _, "ms")) ++
      Seq(Metric("sparkexec.gc_s", perSession("sparkexec.gc_s"), "s"),
        Metric("sparkexec.apply_conf_ms", applyMs, "ms")) ++
      Seq("core.full_trials", "core.rqa_trials", "core.csq", "core.iicp_kept", "core.kpca_dims")
        .map(k => Metric(k, perSession(k), "count")) ++
      setUpMetrics
  }

  override def close(): Unit = if (spark != null) spark.stop()
}

object RealSpark {
  /** Rows as `Oracle` compares them: columns in name order, doubles at six
    * decimals, nulls as "∅", rows sorted by their concatenation.
    */
  def canon(df: DataFrame): Seq[Seq[String]] = {
    val cols = df.columns.toSeq
    val idx = cols.sorted.map(cols.indexOf)
    df.collect().toSeq
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                     => "∅"
          case d: Double                => f"$d%.6f"
          case f: Float                 => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                        => x.toString
        }
      })
      .sortBy(_.mkString(""))
  }
}
