package repro

import org.apache.spark.sql.DataFrame

/** Self-tests of the DuckDB oracle: equal result sets pass whatever order
  * each engine returns them in, and every kind of difference fails.
  */
class OracleSpec extends SparkSpec {

  // Joined with a \u0001 separator, ("1\u0001", "2") and ("1", "\u00012")
  // give the same string, so a sort on the joined row cannot order them.
  private lazy val t: DataFrame = {
    import spark.implicits._
    Seq(("1\u0001", "2"), ("1", "\u00012"), ("2", "x")).toDF("a", "b")
  }

  private def check(df: DataFrame, sql: String): Unit = Oracle.assertEquivalent(df, sql, "t" -> t)

  test("equal rows match whatever order each engine returns them in") {
    check(t.orderBy("a"), "SELECT a, b FROM t ORDER BY a DESC")
  }

  test("a dropped row fails") {
    intercept[IllegalArgumentException] { check(t.filter("a <> '2'"), "SELECT a, b FROM t") }
  }

  test("a changed value fails") {
    intercept[IllegalArgumentException] {
      check(t.selectExpr("a", "CASE WHEN a = '2' THEN 'y' ELSE b END AS b"), "SELECT a, b FROM t")
    }
  }

  test("a column-set mismatch fails") {
    intercept[IllegalArgumentException] { check(t.withColumnRenamed("b", "c"), "SELECT a, b FROM t") }
  }
}
