package perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import java.io.File
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** The harness prints exactly the metrics `BENCHMARK.json` gates. */
class BenchmarkJsonSpec extends AnyFunSuite {
  private lazy val spec = new ObjectMapper().readTree(new File("../BENCHMARK.json"))
  private def names(key: String) = spec.get(key).elements().asScala.map(_.get("name").asText).toSeq

  test("end_to_end metrics and units match the harness") {
    assert(names("end_to_end") == Main.EndToEnd.map(_._1))
    val units = spec.get("end_to_end").elements().asScala.map(_.get("unit").asText).toSeq
    assert(units == Main.EndToEnd.map(_._2))
  }

  test("per_layer metrics match the harness") {
    assert(names("per_layer") == Main.PerLayer)
  }

  test("every gated workload is one the harness runs") {
    assert(names("workloads").forall(Workload.names.contains))
  }
}
