// prc_query: command-line front end to the library.
//
//   prc_query generate --out data.csv [--records N] [--seed S]
//       Write a synthetic CityPulse-like dataset to CSV.
//
//   prc_query count --csv data.csv --index ozone --lower 60 --upper 110
//             [--alpha 0.05] [--delta 0.8] [--nodes 8] [--seed S] [--exact]
//             [--frame-loss 0.3] [--max-attempts 3]
//       Answer a range-counting query privately (default) or exactly
//       (--exact, for ground truth) over a CSV dataset.  --frame-loss and
//       --max-attempts simulate a lossy channel with a bounded retry
//       budget; the output then reports the achieved coverage.
//
//   prc_query quote --alpha 0.05 --delta 0.8 [--records N] [--nodes K]
//             [--base-price 100] [--exponent 1]
//       Print the Theorem 4.2 price and contract variance without touching
//       any data.
//
//   prc_query quantile --csv data.csv --index ozone --q 0.5
//             [--p 0.1] [--nodes 8] [--seed S]
//             [--frame-loss 0.3] [--max-attempts 3]
//       Estimate a quantile from one round of rank samples (and print the
//       exact value for comparison).  Warns when the bounded retry budget
//       left the round partial.
//
//   prc_query session --csv data.csv --index ozone --lower 60 --upper 110
//             [--sales 3] [--alpha 0.05] [--delta 0.8] [--nodes 8]
//             [--budget 5] [--base-price 100] [--seed S]
//             [--frame-loss 0.3] [--max-attempts 3]
//             [--wal ledger.wal] [--checkpoint-interval 64] [--wal-fsync]
//       Run a full market session — collection rounds, private answers,
//       Theorem 4.2 pricing, and ledgered sales — so one invocation
//       exercises every layer of the pipeline.  With --wal, every sale is
//       write-ahead logged; pointing --wal at a log left by a crashed
//       session recovers it (replay + re-audit) before selling.
//
//   prc_query recover --wal ledger.wal [--records N] [--nodes K]
//             [--base-price 100] [--compact]
//       Audit-and-report recovery of a write-ahead log without selling
//       anything: replay the log into a fresh ledger, print the recovered
//       totals and the orphan charge, re-check budget conservation, and
//       (when --records/--nodes describe the original deployment)
//       re-validate the Theorem 4.2 menu.  --compact additionally folds
//       the log into a single checkpoint.  Exits 1 if any audit fails.
//
//   prc_query check-telemetry [snapshot.json] [--prom scrape.prom]...
//       The telemetry schema gate: validates a --telemetry JSON snapshot
//       (histogram shape, unique names, >= 20 metrics over the iot, dp,
//       pricing and market layers) and any number of Prometheus
//       expositions (promtool-style parse), and maps every metric back to
//       its metrics_metadata.inc entry of the matching kind.  Exits 1 on
//       any violation.
//
// Every data-touching subcommand accepts:
//   --telemetry path.json     write a TelemetrySnapshot (JSON) on exit
//   --telemetry-csv path.csv  write the same snapshot as CSV
//   --telemetry-prom path     write the snapshot in Prometheus exposition
//                             format 0.0.4 (scrape-file style)
//   --trace                   print a flamegraph-style span dump to stderr
//   --trace-json path.json    write the span buffer as Chrome trace_event
//                             JSON (loadable in Perfetto / chrome://tracing)
//   --threads N               worker threads for the parallel sections
//                             (default: PRC_THREADS env or 1; answers are
//                             bit-identical for every value)
//
// `session` additionally accepts the live-observability options:
//   --metrics-port P          serve GET /metrics (Prometheus exposition)
//                             and /healthz from a background thread; 0
//                             binds an ephemeral port, printed as
//                             "metrics_port N"
//   --metrics-linger-ms MS    keep the process (and the /metrics endpoint)
//                             alive MS milliseconds after the session so
//                             an external scraper can collect the final
//                             state
//   --audit-log path.jsonl    write the broker's privacy-budget audit
//                             timeline (quote/reserve/intent/mint/commit/
//                             refusal/recovery/checkpoint events) as JSONL
//                             and verify Sigma(mint epsilon') +
//                             Sigma(recovery epsilon') == ledger total
// and `recover` accepts:
//   --audit-json path.jsonl   export the replayed WAL as an audit timeline
//                             and reconcile it against the recovered ledger
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/args.h"
#include "common/metrics_http.h"
#include "common/metrics_metadata.h"
#include "common/parallel.h"
#include "common/prometheus.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "data/citypulse.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "dp/private_counting.h"
#include "estimator/quantile.h"
#include "iot/network.h"
#include "market/audit_log.h"
#include "market/broker.h"
#include "market/wal.h"
#include "pricing/arbitrage.h"
#include "pricing/pricing.h"
#include "pricing/variance_model.h"
#include "query/range_query.h"

namespace {

using namespace prc;

[[noreturn]] void die(const std::string& message, const ArgParser& parser) {
  std::cerr << "error: " << message << "\n\n" << parser.help();
  std::exit(2);
}

std::string require(const ArgParser& parser, const std::string& key) {
  const auto value = parser.get(key);
  if (!value) die("missing required --" + key, parser);
  return *value;
}

double required_double(const ArgParser& parser, const std::string& key) {
  const std::string text = require(parser, key);
  try {
    return std::stod(text);
  } catch (const std::exception&) {
    die("--" + key + " expects a number, got '" + text + "'", parser);
  }
}

std::optional<data::AirQualityIndex> index_by_name(const std::string& name) {
  for (auto index : data::kAllAirQualityIndexes) {
    if (data::index_name(index) == name) return index;
  }
  return std::nullopt;
}

ArgParser& add_telemetry_options(ArgParser& parser) {
  return parser
      .option("telemetry", "write a telemetry snapshot (JSON) to this path")
      .option("telemetry-csv", "write a telemetry snapshot (CSV) to this path")
      .option("telemetry-prom",
              "write a telemetry snapshot (Prometheus exposition 0.0.4) to "
              "this path")
      .flag("trace", "print a flamegraph-style span dump to stderr")
      .option("trace-json",
              "write the span buffer as Chrome trace_event JSON "
              "(Perfetto-loadable) to this path")
      .option("threads",
              "worker threads for parallel sections (default: PRC_THREADS "
              "env or 1)");
}

/// Applies --threads to the process-wide pool (no-op when absent, so the
/// PRC_THREADS default stands).
void apply_thread_option(const ArgParser& parser) {
  if (const auto threads = parser.get_uint("threads", 0); threads > 0) {
    parallel::set_thread_count(static_cast<std::size_t>(threads));
  }
}

/// Writes the process-wide metrics snapshot / span dump as requested by
/// --telemetry / --telemetry-csv / --trace.  Returns false (and reports on
/// stderr) when an output file cannot be written.
bool export_telemetry(const ArgParser& parser) {
  bool ok = true;
  // Fold tracer-ring statistics in first so every export format carries
  // trace.spans_dropped and silent span eviction is visible.
  trace::publish_telemetry();
  const auto snapshot = telemetry::Telemetry::registry().snapshot();
  if (const auto path = parser.get("telemetry")) {
    std::ofstream out(*path);
    out << snapshot.to_json() << "\n";
    if (!out) {
      std::cerr << "error: cannot write telemetry JSON to " << *path << "\n";
      ok = false;
    }
  }
  if (const auto path = parser.get("telemetry-csv")) {
    std::ofstream out(*path);
    out << snapshot.to_csv();
    if (!out) {
      std::cerr << "error: cannot write telemetry CSV to " << *path << "\n";
      ok = false;
    }
  }
  if (const auto path = parser.get("telemetry-prom")) {
    std::ofstream out(*path);
    out << telemetry::prometheus::render(snapshot);
    if (!out) {
      std::cerr << "error: cannot write telemetry exposition to " << *path
                << "\n";
      ok = false;
    }
  }
  if (parser.has("trace")) {
    std::cerr << trace::Tracer::instance().flame_text();
  }
  if (const auto path = parser.get("trace-json")) {
    std::ofstream out(*path);
    out << trace::Tracer::instance().to_chrome_json();
    if (!out) {
      std::cerr << "error: cannot write Chrome trace JSON to " << *path
                << "\n";
      ok = false;
    }
  }
  return ok;
}

data::AirQualityIndex require_index(const ArgParser& parser) {
  const std::string name = require(parser, "index");
  const auto index = index_by_name(name);
  if (!index) {
    std::string known;
    for (auto i : data::kAllAirQualityIndexes) {
      known += std::string(data::index_name(i)) + " ";
    }
    die("unknown index '" + name + "' (known: " + known + ")", parser);
  }
  return *index;
}

int cmd_generate(int argc, char** argv) {
  ArgParser parser("prc_query generate", "write a synthetic dataset to CSV");
  parser.option("out", "output CSV path (required)")
      .option("records", "record count (default 17568)")
      .option("seed", "generator seed (default 20140801)");
  if (!parser.parse(argc, argv)) return 0;
  data::CityPulseConfig config;
  config.record_count =
      static_cast<std::size_t>(parser.get_uint("records", 17568));
  config.seed = parser.get_uint("seed", 20140801);
  const auto records = data::CityPulseGenerator(config).generate();
  data::write_records_csv(records, require(parser, "out"));
  std::cout << "wrote " << records.size() << " records to "
            << require(parser, "out") << "\n";
  return 0;
}

int cmd_count(int argc, char** argv) {
  ArgParser parser("prc_query count",
                   "answer a range count over a CSV dataset");
  parser.option("csv", "dataset CSV (required)")
      .option("index", "air-quality index name (required)")
      .option("lower", "range lower bound (required)")
      .option("upper", "range upper bound (required)")
      .option("alpha", "contract error bound (default 0.05)")
      .option("delta", "contract confidence (default 0.8)")
      .option("nodes", "simulated node count (default 8)")
      .option("seed", "simulation seed (default 1)")
      .option("frame-loss", "i.i.d. frame loss probability (default 0)")
      .option("max-attempts",
              "per-frame transmission budget, 0 = retry forever (default 0)")
      .flag("exact", "print the exact count instead (ground truth)");
  add_telemetry_options(parser);
  if (!parser.parse(argc, argv)) return 0;
  apply_thread_option(parser);

  const query::RangeQuery range{required_double(parser, "lower"),
                                required_double(parser, "upper")};
  range.validate();
  const auto records = data::read_records_csv(require(parser, "csv"));
  const data::Dataset dataset(records);
  const auto& column = dataset.column(require_index(parser));

  if (parser.has("exact")) {
    std::cout << column.exact_range_count(range.lower, range.upper) << "\n";
    return 0;
  }
  const query::AccuracySpec spec{parser.get_double("alpha", 0.05),
                                 parser.get_double("delta", 0.8)};
  spec.validate();
  const auto nodes =
      static_cast<std::size_t>(parser.get_uint("nodes", 8));
  const auto seed = parser.get_uint("seed", 1);

  Rng rng(seed);
  auto node_data = data::partition_values(
      column.values(), nodes, data::PartitionStrategy::kRoundRobin, rng);
  iot::NetworkConfig net_config;
  net_config.seed = seed + 1;
  net_config.frame_loss_probability = parser.get_double("frame-loss", 0.0);
  net_config.max_attempts =
      static_cast<std::size_t>(parser.get_uint("max-attempts", 0));
  iot::FlatNetwork network(std::move(node_data), net_config);
  dp::PrivateRangeCounter counter(network, {}, seed + 2);
  dp::PrivateAnswer answer;
  try {
    // One-shot CLI estimate: there is no ledger or WAL in `count` mode to
    // protect, so the broker barrier does not apply.  `session` mode (the
    // market path) routes every answer through the broker.
    answer = counter.answer(range, spec);  // lint:allow barrier
  } catch (const dp::CoverageError& e) {
    std::cerr << "refused: " << e.what() << "\n"
              << "the lossy channel (coverage " << e.coverage().coverage
              << ", min p_i " << e.coverage().min_probability
              << ") cannot support this contract; widen --alpha or raise "
                 "--max-attempts\n";
    export_telemetry(parser);
    return 1;
  }

  std::cout << "private_count " << answer.value << "\n"
            << "contract " << spec.to_string() << " (error bound "
            << spec.alpha * static_cast<double>(column.size())
            << " with prob >= " << spec.delta << ")\n"
            << "plan " << answer.plan.to_string() << "\n"
            << "uplink_bytes " << network.stats().uplink_bytes << "\n";
  if (net_config.max_attempts != 0 ||
      net_config.frame_loss_probability > 0.0) {
    std::cout << "coverage " << answer.coverage.coverage << " (min p_i "
              << answer.coverage.min_probability << ", dropped_frames "
              << network.stats().dropped_frames << ")\n";
  }
  return export_telemetry(parser) ? 0 : 1;
}

int cmd_quote(int argc, char** argv) {
  ArgParser parser("prc_query quote",
                   "price a contract under Theorem 4.2 pricing");
  parser.option("alpha", "contract error bound (required)")
      .option("delta", "contract confidence (required)")
      .option("records", "dataset size n (default 17568)")
      .option("nodes", "node count k (default 8)")
      .option("base-price", "price of the (0.1, 0.5) reference (default 100)")
      .option("exponent", "power-family exponent q (default 1)");
  add_telemetry_options(parser);
  if (!parser.parse(argc, argv)) return 0;
  apply_thread_option(parser);
  const query::AccuracySpec spec{required_double(parser, "alpha"),
                                 required_double(parser, "delta")};
  spec.validate();
  const auto n = static_cast<std::size_t>(parser.get_uint("records", 17568));
  const auto k = static_cast<std::size_t>(parser.get_uint("nodes", 8));
  const double base = parser.get_double("base-price", 100.0);
  const double exponent = parser.get_double("exponent", 1.0);

  const pricing::VarianceModel model(n, k);
  const pricing::InverseVariancePricing pricing(
      model, query::AccuracySpec{0.1, 0.5}, base, exponent);
  std::cout << "contract " << spec.to_string() << "\n"
            << "contract_variance " << model.contract_variance(spec) << "\n"
            << "price " << pricing.price(spec) << "  (" << pricing.name()
            << ", reference (alpha=0.1, delta=0.5) -> " << base << ")\n";
  if (exponent != 1.0) {
    std::cout << "warning: exponent != 1 is NOT arbitrage-avoiding "
                 "(Theorem 4.2)\n";
  }
  return export_telemetry(parser) ? 0 : 1;
}

int cmd_quantile(int argc, char** argv) {
  ArgParser parser("prc_query quantile",
                   "estimate a quantile from rank samples");
  parser.option("csv", "dataset CSV (required)")
      .option("index", "air-quality index name (required)")
      .option("q", "quantile in [0, 1] (required)")
      .option("p", "sampling probability (default 0.1)")
      .option("nodes", "simulated node count (default 8)")
      .option("seed", "simulation seed (default 1)")
      .option("frame-loss", "i.i.d. frame loss probability (default 0)")
      .option("max-attempts",
              "per-frame transmission budget, 0 = retry forever (default 0)");
  add_telemetry_options(parser);
  if (!parser.parse(argc, argv)) return 0;
  apply_thread_option(parser);
  const double q = required_double(parser, "q");
  const double p = parser.get_double("p", 0.1);
  const auto nodes = static_cast<std::size_t>(parser.get_uint("nodes", 8));
  const auto seed = parser.get_uint("seed", 1);

  const auto records = data::read_records_csv(require(parser, "csv"));
  const data::Dataset dataset(records);
  const auto& column = dataset.column(require_index(parser));

  Rng rng(seed);
  auto node_data = data::partition_values(
      column.values(), nodes, data::PartitionStrategy::kRoundRobin, rng);
  iot::NetworkConfig net_config;
  net_config.seed = seed + 1;
  net_config.frame_loss_probability = parser.get_double("frame-loss", 0.0);
  net_config.max_attempts =
      static_cast<std::size_t>(parser.get_uint("max-attempts", 0));
  iot::FlatNetwork network(std::move(node_data), net_config);
  const auto report = network.ensure_sampling_probability(p);
  const auto view = network.base_station().view();
  std::cout << "quantile_estimate "
            << estimator::quantile_estimate(view->nodes, p, q, column.size())
            << "\n"
            << "exact_quantile " << column.quantile(q) << "\n"
            << "samples_used " << view->cached_samples << " (p = " << p
            << ")\n";
  if (!report.complete()) {
    std::cout << "warning: partial round (delivered "
              << report.delivered_nodes() << "/" << report.outcomes.size()
              << " nodes, dropped_frames " << report.dropped_frames
              << "); the estimate only covers delivered nodes\n";
  }
  return export_telemetry(parser) ? 0 : 1;
}

int cmd_session(int argc, char** argv) {
  ArgParser parser("prc_query session",
                   "run a full collection -> DP -> pricing -> market session");
  parser.option("csv", "dataset CSV (required)")
      .option("index", "air-quality index name (required)")
      .option("lower", "range lower bound (required)")
      .option("upper", "range upper bound (required)")
      .option("sales", "number of purchases to attempt (default 3)")
      .option("alpha", "contract error bound (default 0.05)")
      .option("delta", "contract confidence (default 0.8)")
      .option("nodes", "simulated node count (default 8)")
      .option("budget", "per-consumer epsilon cap (default 5)")
      .option("base-price", "price of the (0.1, 0.5) reference (default 100)")
      .option("seed", "simulation seed (default 1)")
      .option("frame-loss", "i.i.d. frame loss probability (default 0)")
      .option("max-attempts",
              "per-frame transmission budget, 0 = retry forever (default 0)")
      .option("wal",
              "write-ahead log path; an existing non-empty log is "
              "recovered (replayed + re-audited) before selling")
      .option("checkpoint-interval",
              "commits between WAL checkpoints (default 64)")
      .flag("wal-fsync",
            "fsync every WAL append (survives power loss, one disk "
            "barrier per record; default survives process death only)")
      .option("metrics-port",
              "serve GET /metrics (Prometheus exposition) and /healthz on "
              "this port from a background thread (0 = ephemeral)")
      .option("metrics-linger-ms",
              "keep the /metrics endpoint up this many milliseconds after "
              "the session finishes (default 0)")
      .option("audit-log",
              "write the broker's privacy-budget audit timeline (JSONL) to "
              "this path and reconcile it against the ledger");
  add_telemetry_options(parser);
  if (!parser.parse(argc, argv)) return 0;
  apply_thread_option(parser);

  // Up before the first collection round so a scraper watching the port
  // sees the session's whole life, not just its final state.
  std::unique_ptr<telemetry::MetricsHttpServer> metrics_server;
  if (parser.has("metrics-port")) {
    metrics_server = std::make_unique<telemetry::MetricsHttpServer>(
        static_cast<std::uint16_t>(parser.get_uint("metrics-port", 0)));
    std::cout << "metrics_port " << metrics_server->port() << "\n";
  }

  const query::RangeQuery range{required_double(parser, "lower"),
                                required_double(parser, "upper")};
  range.validate();
  const query::AccuracySpec spec{parser.get_double("alpha", 0.05),
                                 parser.get_double("delta", 0.8)};
  spec.validate();
  const auto nodes = static_cast<std::size_t>(parser.get_uint("nodes", 8));
  const auto sales = static_cast<std::size_t>(parser.get_uint("sales", 3));
  const auto seed = parser.get_uint("seed", 1);

  const auto records = data::read_records_csv(require(parser, "csv"));
  const data::Dataset dataset(records);
  const auto& column = dataset.column(require_index(parser));

  Rng rng(seed);
  auto node_data = data::partition_values(
      column.values(), nodes, data::PartitionStrategy::kRoundRobin, rng);
  iot::NetworkConfig net_config;
  net_config.seed = seed + 1;
  net_config.frame_loss_probability = parser.get_double("frame-loss", 0.0);
  net_config.max_attempts =
      static_cast<std::size_t>(parser.get_uint("max-attempts", 0));
  iot::FlatNetwork network(std::move(node_data), net_config);
  dp::PrivateRangeCounter counter(network, {}, seed + 2);

  const pricing::VarianceModel model(column.size(), nodes);
  auto pricing_fn = std::make_unique<pricing::InverseVariancePricing>(
      model, query::AccuracySpec{0.1, 0.5},
      parser.get_double("base-price", 100.0), 1.0);
  market::BrokerConfig broker_config;
  broker_config.per_consumer_epsilon_cap = parser.get_double("budget", 5.0);
  broker_config.wal_checkpoint_interval =
      static_cast<std::size_t>(parser.get_uint("checkpoint-interval", 64));
  broker_config.wal_fsync = parser.has("wal-fsync");
  market::DataBroker broker(counter, std::move(pricing_fn), broker_config);

  if (parser.has("wal")) {
    const std::string wal_path = require(parser, "wal");
    std::ifstream probe(wal_path, std::ios::binary | std::ios::ate);
    const bool has_history = probe.good() && probe.tellg() > 0;
    if (has_history) {
      const auto stats = broker.recover_and_attach_wal(wal_path, model);
      std::cout << "recovered " << stats.committed_sales
                << " committed sale(s), " << stats.orphaned_intents
                << " orphaned intent(s) charging "
                << stats.orphaned_epsilon << " epsilon";
      if (stats.truncated_bytes > 0) {
        std::cout << " (truncated " << stats.truncated_bytes
                  << " corrupt byte(s))";
      }
      std::cout << "\n";
    } else {
      broker.attach_wal(wal_path);
    }
  }

  std::cout << "quote " << broker.quote(spec) << " for " << spec.to_string()
            << "\n";
  std::size_t completed = 0;
  for (std::size_t i = 0; i < sales; ++i) {
    const std::string consumer = "consumer-" + std::to_string(i);
    const auto outcome = broker.try_sell(consumer, range, spec);
    if (!outcome.sold()) {
      std::cout << "sale refused (" << consumer
                << "): " << outcome.refusal().message(consumer) << "\n";
      continue;
    }
    const auto& receipt = outcome.receipt();
    ++completed;
    std::cout << "sale " << receipt.transaction_id << " " << consumer
              << " value " << receipt.value << " price " << receipt.price
              << (receipt.degraded ? " (degraded)" : "") << "\n";
  }
  std::cout << "completed_sales " << completed << "/" << sales << "\n"
            << "revenue " << broker.ledger().total_revenue() << "\n"
            << "epsilon_released " << broker.ledger().total_epsilon() << "\n"
            << "uplink_bytes " << network.stats().uplink_bytes << "\n";
  if (broker.write_ahead_log() != nullptr) {
    std::cout << "wal_records " << broker.write_ahead_log()->records_appended()
              << "\n"
              << "wal_bytes " << broker.write_ahead_log()->bytes_appended()
              << "\n";
  }

  bool audit_ok = true;
  const auto reconciliation =
      broker.audit_log().reconcile(broker.ledger());
  if (parser.has("audit-log")) {
    const std::string audit_path = require(parser, "audit-log");
    std::ofstream out(audit_path);
    out << broker.audit_log().to_jsonl();
    if (!out) {
      std::cerr << "error: cannot write audit log to " << audit_path << "\n";
      audit_ok = false;
    } else {
      std::cout << "audit_events " << broker.audit_log().size() << " -> "
                << audit_path << "\n";
    }
    std::cout << reconciliation.to_string() << "\n";
    audit_ok = audit_ok && reconciliation.consistent;
  } else if (!reconciliation.consistent) {
    // Even without an export the session refuses to end with unbalanced
    // books: a mint the ledger never saw is the bug this timeline exists
    // to catch.
    std::cerr << reconciliation.to_string() << "\n";
    audit_ok = false;
  }

  const bool telemetry_ok = export_telemetry(parser);
  if (const auto linger = parser.get_uint("metrics-linger-ms", 0);
      metrics_server != nullptr && linger > 0) {
    std::cout << "metrics_linger_ms " << linger << std::endl;
    std::this_thread::sleep_for(std::chrono::milliseconds(linger));
  }
  return (telemetry_ok && audit_ok) ? 0 : 1;
}

int cmd_recover(int argc, char** argv) {
  ArgParser parser("prc_query recover",
                   "replay and audit a broker write-ahead log");
  parser.option("wal", "write-ahead log path (required)")
      .option("records",
              "dataset size of the original deployment; with --nodes, "
              "enables the Theorem 4.2 menu re-validation")
      .option("nodes", "node count of the original deployment")
      .option("base-price", "price of the (0.1, 0.5) reference (default 100)")
      .option("audit-json",
              "export the replayed WAL as a privacy-budget audit timeline "
              "(JSONL) and reconcile it against the recovered ledger")
      .flag("compact",
            "fold the recovered state into a single-checkpoint log");
  add_telemetry_options(parser);
  if (!parser.parse(argc, argv)) return 0;

  const std::string path = require(parser, "wal");
  const auto recovery = market::wal::read_wal(path);
  market::Ledger ledger;
  market::wal::apply_recovery(ledger, recovery);

  std::cout << "records_read " << recovery.stats.records_read << "\n"
            << "checkpoints_seen " << recovery.stats.checkpoints_seen << "\n"
            << "committed_sales " << recovery.stats.committed_sales << "\n"
            << "orphaned_intents " << recovery.stats.orphaned_intents << "\n"
            << "orphaned_epsilon " << recovery.stats.orphaned_epsilon << "\n"
            << "valid_bytes " << recovery.stats.valid_bytes << "\n"
            << "truncated_bytes " << recovery.stats.truncated_bytes << "\n"
            << "recovered_revenue " << ledger.total_revenue() << "\n"
            << "recovered_epsilon " << ledger.total_epsilon() << "\n"
            << "next_sequence " << ledger.snapshot().next_sequence << "\n";

  bool audits_pass = true;
  const double discrepancy = ledger.conservation_discrepancy();
  const bool conserved =
      discrepancy <=
      1e-9 * (1.0 + ledger.total_epsilon() + ledger.total_revenue());
  std::cout << "conservation " << (conserved ? "OK" : "VIOLATED")
            << " (discrepancy " << discrepancy << ")\n";
  audits_pass = audits_pass && conserved;

  if (parser.has("audit-json")) {
    const std::string audit_path = require(parser, "audit-json");
    // apply_recovery() wrote the timeline as it folded the log.
    const market::AuditLog& audit = ledger.timeline();
    std::ofstream out(audit_path);
    out << audit.to_jsonl();
    if (!out) {
      std::cerr << "error: cannot write audit timeline to " << audit_path
                << "\n";
      audits_pass = false;
    } else {
      std::cout << "audit_events " << audit.size() << " -> " << audit_path
                << "\n";
    }
    // The timeline must balance against the ledger it was folded into:
    // the kRecovery total closes the equation.
    const auto reconciliation = audit.reconcile(ledger);
    std::cout << reconciliation.to_string() << "\n";
    audits_pass = audits_pass && reconciliation.consistent;
  }

  if (parser.has("records") && parser.has("nodes")) {
    const pricing::VarianceModel model(
        static_cast<std::size_t>(parser.get_uint("records", 0)),
        static_cast<std::size_t>(parser.get_uint("nodes", 0)));
    const pricing::InverseVariancePricing menu(
        model, query::AccuracySpec{0.1, 0.5},
        parser.get_double("base-price", 100.0), 1.0);
    const auto report = pricing::ArbitrageChecker(model).check(menu);
    std::cout << "arbitrage_menu "
              << (report.arbitrage_avoiding ? "OK" : "VIOLATED") << " ("
              << report.checks_performed << " checks, "
              << report.violations.size() << " violations)\n";
    audits_pass = audits_pass && report.arbitrage_avoiding;
  }

  if (parser.has("compact") && audits_pass) {
    market::wal::WriteAheadLog::compact(
        path, ledger.checkpoint("wal compacted after recovery"),
        recovery.next_wal_sequence);
    std::cout << "compacted " << path << "\n";
  }
  if (!export_telemetry(parser)) return 1;
  return audits_pass ? 0 : 1;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Prints the verdict for one input; true when it has no problems.
bool report_schema(const std::string& path,
                   const std::vector<std::string>& problems,
                   const std::string& summary) {
  for (const auto& problem : problems) {
    std::cout << "check-telemetry: FAIL: " << path << ": " << problem << "\n";
  }
  if (problems.empty()) {
    std::cout << "check-telemetry: OK " << path << " (" << summary << ")\n";
  }
  return problems.empty();
}

int cmd_check_telemetry(int argc, char** argv) {
  const char* usage =
      "usage: prc_query check-telemetry [snapshot.json] [--prom PATH]...\n";
  std::optional<std::string> snapshot_path;
  std::vector<std::string> prom_paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--prom" && i + 1 < argc) {
      prom_paths.emplace_back(argv[++i]);
    } else if (arg.rfind("-", 0) != 0 && !snapshot_path) {
      snapshot_path = arg;
    } else {
      std::cerr << usage;
      return arg == "--help" ? 0 : 2;
    }
  }
  if (!snapshot_path && prom_paths.empty()) {
    std::cerr << usage;
    return 2;
  }
  bool ok = true;
  // An unreadable or unparseable input throws to main(): exit 1.
  if (snapshot_path) {
    const auto snapshot =
        telemetry::TelemetrySnapshot::from_json(read_file(*snapshot_path));
    ok = report_schema(*snapshot_path,
                       telemetry::snapshot_schema_problems(snapshot),
                       std::to_string(snapshot.metric_count()) +
                           " metrics, all layers covered, all registered");
  }
  for (const auto& path : prom_paths) {
    ok = report_schema(path,
                       telemetry::exposition_schema_problems(read_file(path)),
                       "exposition 0.0.4 valid, all families registered") &&
         ok;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: prc_query "
                 "{generate|count|quote|quantile|session|recover|"
                 "check-telemetry} "
                 "[options]\n       prc_query <command> --help\n";
    return 2;
  }
  const std::string command = argv[1];
  // Shift argv so each subcommand parser sees its own options.
  try {
    if (command == "generate") return cmd_generate(argc - 1, argv + 1);
    if (command == "count") return cmd_count(argc - 1, argv + 1);
    if (command == "quote") return cmd_quote(argc - 1, argv + 1);
    if (command == "quantile") return cmd_quantile(argc - 1, argv + 1);
    if (command == "session") return cmd_session(argc - 1, argv + 1);
    if (command == "recover") return cmd_recover(argc - 1, argv + 1);
    if (command == "check-telemetry") {
      return cmd_check_telemetry(argc - 1, argv + 1);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "unknown command '" << command << "'\n";
  return 2;
}
