// perfbench driver: runs one workload of the repository benchmark and
// writes its raw measurements as one JSON document (--out).
// perfbench/run.py builds this program, runs it, checks the outputs
// and turns the measurements into the benchmark's metrics; see
// perfbench/README.md for the workloads and metric definitions.
//
// Every layer is driven from outside through public APIs:
// serve::run_serving_session + InferenceClient::submit/await for the
// serving workloads, TrustDdlEngine::train over a recording
// net::Transport for train_cnn.  Tracing and metrics stay off unless
// --trace 1, which turns on the program's own metrics_out/trace_out
// export for the main (timed) session only.
//
// The workload seed generates the synthetic-MNIST inputs and the
// arrival schedule; the engine seed (weights and dealing) is fixed.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/sha256.hpp"
#include "core/engine.hpp"
#include "data/synthetic_mnist.hpp"
#include "net/network.hpp"
#include "nn/loss.hpp"
#include "numeric/kernels.hpp"
#include "recording_transport.hpp"
#include "serve/harness.hpp"

using namespace trustddl;
using Clock = std::chrono::steady_clock;

namespace {

// --- Fixed workload parameters (README.md gives the reasons) --------

constexpr std::uint64_t kEngineSeed = 7;
constexpr std::chrono::milliseconds kLinkLatency{2};
/// Distinct query images per run; queries draw from this pool so the
/// honest reference needs one pass over it, whatever the run length.
constexpr std::size_t kImagePool = 32;
constexpr std::size_t kReferenceBatch = 8;
/// Setups measured per run (the main session's plus warm-up ones).
constexpr int kSetupRepeats = 3;

constexpr double kPoissonRate = 2.5;        ///< queries/s, below the knee
constexpr std::size_t kBurstWindow = 16;    ///< outstanding queries
constexpr double kBurstNominalRate = 40.0;  ///< sizes the query count
constexpr std::size_t kTrainBatch = 8;
constexpr double kTrainNominalStepsPerS = 3.5;
constexpr double kTrainLearningRate = 0.1;
constexpr std::size_t kTrainHeldOut = 200;

/// Latency limits for goodput_frac, per workload.
constexpr double kPoissonLimitMs = 1000.0;
constexpr double kBurstLimitMs = 2000.0;
constexpr double kTrainLimitMs = 5000.0;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// --- Minimal JSON writer --------------------------------------------

class Json {
 public:
  Json& key(const std::string& name) {
    comma();
    text_ += '"' + name + "\": ";
    fresh_ = true;
    return *this;
  }
  Json& num(double value) {
    comma();
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    text_ += buffer;
    return *this;
  }
  Json& integer(std::uint64_t value) {
    comma();
    text_ += std::to_string(value);
    return *this;
  }
  Json& str(const std::string& value) {
    comma();
    text_ += '"';
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        text_ += '\\';
      }
      text_ += c;
    }
    text_ += '"';
    return *this;
  }
  Json& boolean(bool value) {
    comma();
    text_ += value ? "true" : "false";
    return *this;
  }
  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }
  Json& nums(const std::vector<double>& values) {
    begin_array();
    for (const double value : values) {
      num(value);
    }
    return end_array();
  }
  const std::string& text() const { return text_; }

 private:
  void comma() {
    if (!fresh_) {
      text_ += ", ";
    }
    fresh_ = false;
  }
  Json& open(char bracket) {
    comma();
    text_ += bracket;
    fresh_ = true;
    return *this;
  }
  Json& close(char bracket) {
    text_ += bracket;
    fresh_ = false;
    return *this;
  }

  std::string text_;
  bool fresh_ = true;
};

// --- Shared set-up --------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string obs_dir;
};

/// Outcome of one item.  kWrong: completed with a label that differs
/// from the honest reference.
enum class Outcome { kOk, kRejected, kDeadline, kWrong, kException };

struct Tally {
  std::array<std::uint64_t, 5> counts{};
  void add(Outcome outcome) { counts[static_cast<std::size_t>(outcome)] += 1; }
  std::uint64_t get(Outcome outcome) const {
    return counts[static_cast<std::size_t>(outcome)];
  }
};

core::EngineConfig engine_config(bool emulate_latency) {
  core::EngineConfig config;
  config.mode = mpc::SecurityMode::kMalicious;
  config.trunc_mode = core::TruncationMode::kMaskedOpen;
  config.seed = kEngineSeed;
  config.emulate_latency = emulate_latency;
  config.link_latency = kLinkLatency;
  return config;
}

void set_observation(core::EngineConfig& config, const Args& args) {
  if (args.trace) {
    config.metrics_out = args.obs_dir + "/metrics.json";
    config.trace_out = args.obs_dir + "/trace.jsonl";
  }
}

data::Dataset image_pool(std::uint64_t seed) {
  data::SyntheticMnistConfig config;
  config.train_count = 1;
  config.test_count = kImagePool;
  config.seed = seed;
  return data::generate_synthetic_mnist(config).test;
}

/// Honest engine labels for `inputs`: the correctness reference.
std::vector<std::size_t> reference_labels(const data::Dataset& inputs) {
  core::TrustDdlEngine engine(nn::mnist_cnn_spec(), engine_config(false));
  return engine.infer(inputs, kReferenceBatch).labels;
}

/// Seed-derived sequence of pool indices, one per query.
std::vector<std::size_t> query_images(std::uint64_t seed, std::size_t count) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
  std::vector<std::size_t> images(count);
  for (auto& image : images) {
    image = static_cast<std::size_t>(rng.next_below(kImagePool));
  }
  return images;
}

struct RunContext {
  double calibration_s = 0.0;
  std::size_t matmul_cutoff_bytes = 0;
  int kernel_threads = 0;
};

/// Force the one-shot matmul calibration before anything is timed.
RunContext calibrate() {
  RunContext context;
  const auto start = Clock::now();
  const kernels::KernelConfig config = kernels::global_config();
  context.matmul_cutoff_bytes = kernels::effective_matmul_cutoff_bytes(config);
  context.kernel_threads = config.resolved_threads();
  context.calibration_s = ms_between(start, Clock::now()) / 1000.0;
  return context;
}

struct Measurements {
  std::vector<double> setup_s;
  std::vector<double> latency_ms;  ///< one per timed item
  double timed_s = 0.0;            ///< first timed item start -> last end
  double limit_ms = 0.0;
  std::uint64_t items = 0;         ///< items attempted
  std::uint64_t metered_items = 0; ///< items the metered bytes cover
  std::uint64_t metered_bytes = 0;
  Tally tally;
  std::vector<bool> good;  ///< per latency sample: correct and in limit
};

void write_common(Json& json, const Args& args, const RunContext& context,
                  const Measurements& m) {
  json.key("workload").str(args.workload);
  json.key("seed").integer(args.seed);
  json.key("calibration_s").num(context.calibration_s);
  json.key("matmul_cutoff_bytes").integer(context.matmul_cutoff_bytes);
  json.key("kernel_threads").integer(
      static_cast<std::uint64_t>(context.kernel_threads));
  json.key("setup_s").nums(m.setup_s);
  json.key("latency_ms").nums(m.latency_ms);
  std::vector<double> good;
  for (const bool flag : m.good) {
    good.push_back(flag ? 1.0 : 0.0);
  }
  json.key("good").nums(good);
  json.key("timed_s").num(m.timed_s);
  json.key("limit_ms").num(m.limit_ms);
  json.key("items").integer(m.items);
  json.key("metered_items").integer(m.metered_items);
  json.key("metered_bytes").integer(m.metered_bytes);
  json.key("outcomes").begin_object();
  json.key("ok").integer(m.tally.get(Outcome::kOk));
  json.key("rejected").integer(m.tally.get(Outcome::kRejected));
  json.key("deadline").integer(m.tally.get(Outcome::kDeadline));
  json.key("wrong").integer(m.tally.get(Outcome::kWrong));
  json.key("exception").integer(m.tally.get(Outcome::kException));
  json.end_object();
}

/// Per-class recorder totals, plus whether their sums equal the inner
/// transport's meters exactly.
void write_recorder(Json& json, const perfbench::RecordingTransport& rec) {
  const auto totals = rec.totals();
  const net::TrafficSnapshot traffic = rec.traffic();
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  json.key("net_classes").begin_object();
  for (const auto& [cls, t] : totals) {
    bytes += t.bytes;
    messages += t.messages;
    json.key(cls).begin_object();
    json.key("bytes").integer(t.bytes);
    json.key("messages").integer(t.messages);
    json.key("recv_wait_us").integer(t.recv_wait_us);
    json.end_object();
  }
  json.end_object();
  json.key("traffic_bytes").integer(traffic.total_bytes);
  json.key("recorder_matches_traffic")
      .boolean(bytes == traffic.total_bytes &&
               messages == traffic.total_messages);
}

// --- Serving workloads ----------------------------------------------

struct QueryRecord {
  std::size_t image = 0;
  Clock::time_point due;
  Clock::time_point submitted;
  double submit_us = 0.0;
  std::uint64_t seq = 0;
  bool sent = false;
  Clock::time_point done;
  Outcome outcome = Outcome::kException;
};

serve::SessionConfig session_config() {
  serve::SessionConfig config;
  config.spec = nn::mnist_cnn_spec();
  config.engine = engine_config(true);
  config.num_clients = 1;
  return config;
}

Outcome classify(const serve::InferenceResult& result, std::size_t expected) {
  switch (result.status) {
    case serve::Status::kOk:
      return result.labels.size() == 1 && result.labels[0] == expected
                 ? Outcome::kOk
                 : Outcome::kWrong;
    case serve::Status::kRejected:
      return Outcome::kRejected;
    default:
      return Outcome::kDeadline;
  }
}

/// Submits queries (open loop on `schedule` offsets, or closed loop
/// with `window` outstanding) from the calling thread while a second
/// thread awaits them in submission order.
void drive_queries(serve::InferenceClient& client, const data::Dataset& pool,
                   const std::vector<std::size_t>& reference,
                   std::vector<QueryRecord>& records,
                   const std::vector<double>* schedule_s,
                   std::size_t window) {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t submitted = 0;  // guarded by mu
  std::size_t completed = 0;  // guarded by mu

  std::thread collector([&] {
    for (std::size_t i = 0; i < records.size(); ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return submitted > i; });
      }
      QueryRecord& record = records[i];
      // An unsent query keeps its kException outcome.
      if (record.sent) {
        try {
          const serve::InferenceResult result = client.await(record.seq, 1);
          record.done = Clock::now();
          record.outcome = classify(result, reference[record.image]);
        } catch (const std::exception& error) {
          record.done = Clock::now();
          std::fprintf(stderr, "query %zu: %s\n", i, error.what());
        }
      }
      {
        const std::lock_guard<std::mutex> lock(mu);
        ++completed;
      }
      cv.notify_all();
    }
  });

  const auto origin = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < records.size(); ++i) {
    QueryRecord& record = records[i];
    if (schedule_s != nullptr) {
      record.due = origin + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    (*schedule_s)[i]));
      std::this_thread::sleep_until(record.due);
    } else {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return submitted - completed < window; });
    }
    record.submitted = Clock::now();
    if (schedule_s == nullptr) {
      record.due = record.submitted;
    }
    try {
      record.seq = client.submit(data::slice(pool, record.image, 1).images);
      record.sent = true;
    } catch (const std::exception& error) {
      record.done = Clock::now();
      std::fprintf(stderr, "submit %zu: %s\n", i, error.what());
    }
    record.submit_us =
        std::chrono::duration<double, std::micro>(Clock::now() -
                                                  record.submitted)
            .count();
    {
      const std::lock_guard<std::mutex> lock(mu);
      ++submitted;
    }
    cv.notify_all();
  }
  collector.join();
}

/// One serving session: set-up, one untimed warm-up query, then the
/// timed queries (none for a set-up-only session).  Returns the set-up
/// time (session start -> warm-up answer).
double serving_session(const serve::SessionConfig& config,
                       const data::Dataset& pool,
                       const std::vector<std::size_t>& reference,
                       std::vector<QueryRecord>& records,
                       const std::vector<double>* schedule_s,
                       std::size_t window, serve::SessionResult* result_out) {
  double setup_s = 0.0;
  const auto start = Clock::now();
  const serve::SessionResult result = serve::run_serving_session(
      config, [&](int, serve::InferenceClient& client) {
        const serve::InferenceResult warm =
            client.infer(data::slice(pool, 0, 1).images);
        if (classify(warm, reference[0]) != Outcome::kOk) {
          throw std::runtime_error("warm-up query failed");
        }
        setup_s = ms_between(start, Clock::now()) / 1000.0;
        if (!records.empty()) {
          drive_queries(client, pool, reference, records, schedule_s, window);
        }
      });
  if (result_out != nullptr) {
    *result_out = result;
  }
  return setup_s;
}

void run_serving(const Args& args, const RunContext& context, bool open_loop,
                 Json& json) {
  const data::Dataset pool = image_pool(args.seed);
  const std::vector<std::size_t> reference = reference_labels(pool);

  Measurements m;
  std::vector<double> schedule;
  std::size_t count = 0;
  if (open_loop) {
    count = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::lround(kPoissonRate * args.seconds)));
    // Poisson arrivals with the seed's variance in burstiness taken
    // out: the gaps are the exponential distribution's quantiles at
    // (i + 0.5) / count, in a seed-shuffled order, scaled so the
    // schedule spans exactly count / rate seconds.  Every seed offers
    // the same gaps; only their order differs.
    std::vector<double> gaps(count);
    for (std::size_t i = 0; i < count; ++i) {
      gaps[i] = -std::log(1.0 - (static_cast<double>(i) + 0.5) /
                                    static_cast<double>(count));
    }
    Rng rng(args.seed * 0xbf58476d1ce4e5b9ULL + 11);
    for (std::size_t i = count - 1; i > 0; --i) {
      std::swap(gaps[i], gaps[static_cast<std::size_t>(rng.next_below(i + 1))]);
    }
    double total = 0.0;
    for (const double gap : gaps) {
      total += gap;
    }
    double at = 0.0;
    for (const double gap : gaps) {
      at += gap * static_cast<double>(count) / kPoissonRate / total;
      schedule.push_back(at);
    }
    m.limit_ms = kPoissonLimitMs;
  } else {
    count = std::max<std::size_t>(
        2, static_cast<std::size_t>(
               std::lround(kBurstNominalRate * args.seconds)));
    m.limit_ms = kBurstLimitMs;
  }
  const std::vector<std::size_t> images = query_images(args.seed, count);

  serve::SessionConfig config = session_config();
  std::vector<QueryRecord> none;
  for (int i = 0; i + 1 < kSetupRepeats; ++i) {
    m.setup_s.push_back(
        serving_session(config, pool, reference, none, nullptr, 0, nullptr));
  }

  set_observation(config.engine, args);
  std::vector<QueryRecord> records(count);
  for (std::size_t i = 0; i < count; ++i) {
    records[i].image = images[i];
  }
  serve::SessionResult session;
  m.setup_s.push_back(serving_session(config, pool, reference, records,
                                      open_loop ? &schedule : nullptr,
                                      kBurstWindow, &session));

  m.items = count;
  std::vector<double> submit_us;
  std::vector<double> late_ms;
  Clock::time_point first = records.front().due;
  Clock::time_point last = first;
  for (const QueryRecord& record : records) {
    m.tally.add(record.outcome);
    const double latency = ms_between(record.due, record.done);
    m.latency_ms.push_back(latency);
    m.good.push_back(record.outcome == Outcome::kOk && latency <= m.limit_ms);
    submit_us.push_back(record.submit_us);
    late_ms.push_back(ms_between(record.due, record.submitted));
    last = std::max(last, record.done);
  }
  m.timed_s = ms_between(first, last) / 1000.0;
  // The session's meters cover its parameter sharing, the warm-up
  // query and the timed queries.
  m.metered_items = count + 1;
  m.metered_bytes = session.traffic.total_bytes;

  write_common(json, args, context, m);
  json.key("submit_us").nums(submit_us);
  json.key("generator_late_ms").nums(late_ms);
  json.key("scheduler").begin_object();
  json.key("admitted").integer(session.scheduler.admitted);
  json.key("completed").integer(session.scheduler.completed);
  json.key("rejected").integer(session.scheduler.rejected);
  json.key("deadline_missed").integer(session.scheduler.deadline_missed);
  json.key("batches").integer(session.scheduler.batches);
  json.key("batched_rows").integer(session.scheduler.batched_rows);
  json.end_object();
}

// --- Engine workloads -----------------------------------------------

/// Event time per step for `actor`; the step is the number after the
/// first '/' of the tag ("b/<step>/x").
std::map<std::size_t, Clock::time_point> events_by_step(
    const std::vector<perfbench::TagEvent>& events, net::PartyId actor) {
  std::map<std::size_t, Clock::time_point> by_step;
  for (const auto& event : events) {
    if (event.actor == actor) {
      by_step.emplace(static_cast<std::size_t>(std::stoull(
                          event.tag.substr(event.tag.find('/') + 1))),
                      event.at);
    }
  }
  return by_step;
}

/// One training call on its own engine, over a recording transport
/// around an in-memory Network.
struct TrainRun {
  std::unique_ptr<net::Network> inner;
  std::unique_ptr<perfbench::RecordingTransport> rec;
  std::unique_ptr<core::TrustDdlEngine> engine;
  core::TrainResult result;
  std::map<std::size_t, Clock::time_point> step_starts;  ///< at party 0
  double call_s = 0.0;  ///< engine construction -> train() returning
};

TrainRun train_call(const core::EngineConfig& config,
                    const data::Dataset& train, const data::Dataset& test,
                    const core::TrainOptions& options) {
  TrainRun run;
  net::NetworkConfig net_config;
  net_config.num_parties = core::kNumActors;
  run.inner = std::make_unique<net::Network>(net_config);
  run.rec = std::make_unique<perfbench::RecordingTransport>(*run.inner);
  run.rec->watch_receives(0, "x");
  const auto start = Clock::now();
  run.engine = std::make_unique<core::TrustDdlEngine>(nn::mnist_cnn_spec(),
                                                      config, *run.rec);
  run.result = run.engine->train(train, test, options);
  run.call_s = ms_between(start, Clock::now()) / 1000.0;
  run.step_starts = events_by_step(run.rec->received_events(), 0);
  return run;
}

std::string weights_digest(nn::Sequential& model) {
  Sha256 hasher;
  for (const nn::Parameter* parameter : model.parameters()) {
    hasher.update(reinterpret_cast<const std::uint8_t*>(
                      parameter->value.data()),
                  parameter->value.size() * sizeof(double));
  }
  return Sha256::hex(hasher.finish());
}

/// Plaintext SGD over the same batches the secure run takes: the
/// reference the reconstructed weights are compared against.
nn::Sequential plaintext_training(const data::Dataset& train,
                                  const core::TrainOptions& options) {
  const nn::ModelSpec spec = nn::mnist_cnn_spec();
  Rng model_rng(kEngineSeed);
  nn::Sequential model = nn::build_model(spec, model_rng);
  const nn::SgdOptimizer optimizer(options.learning_rate);
  Rng shuffle_rng(options.shuffle_seed);
  const auto indices = data::shuffled_indices(train.size(), shuffle_rng);
  for (std::size_t start = 0; start < train.size();
       start += options.batch_size) {
    const data::Dataset batch = data::gather(
        train, indices, start, std::min(options.batch_size,
                                        train.size() - start));
    model.train_step(batch.images, nn::one_hot(batch.labels, spec.classes),
                     optimizer);
  }
  return model;
}

void run_train(const Args& args, const RunContext& context, Json& json) {
  const std::size_t steps = std::max<std::size_t>(
      3, static_cast<std::size_t>(
             std::lround(kTrainNominalStepsPerS * args.seconds)) + 1);
  data::SyntheticMnistConfig data_config;
  data_config.train_count = steps * kTrainBatch;
  data_config.test_count = kTrainHeldOut;
  data_config.seed = args.seed;
  const data::TrainTestSplit split =
      data::generate_synthetic_mnist(data_config);

  core::TrainOptions options;
  options.epochs = 1;
  options.batch_size = kTrainBatch;
  options.learning_rate = kTrainLearningRate;
  options.shuffle_seed = args.seed;

  Measurements m;
  m.limit_ms = kTrainLimitMs;

  // Each set-up sample is a whole one-step training on its own engine:
  // model build, parameter sharing and one warm-up step.
  core::EngineConfig config = engine_config(false);
  const data::Dataset warm_batch = data::slice(split.train, 0, kTrainBatch);
  for (int i = 0; i < kSetupRepeats; ++i) {
    m.setup_s.push_back(
        train_call(config, warm_batch, split.test, options).call_s);
  }
  set_observation(config, args);
  const TrainRun run = train_call(config, split.train, split.test, options);
  const core::TrainResult& result = run.result;

  // Step k runs from party 0 taking step k's input to it taking step
  // k+1's; the last step (and the weight reveal) is left untimed.
  const auto& starts = run.step_starts;
  if (starts.size() != steps) {
    throw std::runtime_error("train: step boundaries missing");
  }
  const bool trained = !result.epoch_test_accuracy.empty();
  for (std::size_t k = 0; k + 1 < steps; ++k) {
    const double latency = ms_between(starts.at(k), starts.at(k + 1));
    m.latency_ms.push_back(latency);
    m.good.push_back(trained && latency <= m.limit_ms);
  }
  m.timed_s = ms_between(starts.at(0), starts.at(steps - 1)) / 1000.0;
  m.items = steps * kTrainBatch;
  m.metered_items = steps * kTrainBatch;
  m.metered_bytes = result.cost.total_bytes;

  const std::string digest = weights_digest(run.engine->reference_model());
  const double accuracy =
      trained ? result.epoch_test_accuracy.back() : 0.0;
  nn::Sequential plain = plaintext_training(split.train, options);
  const auto secure_pred =
      run.engine->reference_model().predict(split.test.images);
  const auto plain_pred = plain.predict(split.test.images);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < secure_pred.size(); ++i) {
    agree += secure_pred[i] == plain_pred[i] ? 1 : 0;
  }
  double max_diff = 0.0;
  const auto secure_params = run.engine->reference_model().parameters();
  const auto plain_params = plain.parameters();
  for (std::size_t p = 0; p < secure_params.size(); ++p) {
    for (std::size_t i = 0; i < secure_params[p]->value.size(); ++i) {
      max_diff = std::max(max_diff,
                          std::abs(secure_params[p]->value.data()[i] -
                                   plain_params[p]->value.data()[i]));
    }
  }
  for (std::size_t i = 0; i < m.items; ++i) {
    m.tally.add(trained ? Outcome::kOk : Outcome::kException);
  }

  write_common(json, args, context, m);
  write_recorder(json, *run.rec);
  json.key("train").begin_object();
  json.key("steps").integer(steps);
  json.key("digest").str(digest);
  json.key("accuracy").num(accuracy);
  json.key("plaintext_accuracy")
      .num(plain.accuracy(split.test.images, split.test.labels));
  json.key("plaintext_agreement")
      .num(static_cast<double>(agree) /
           static_cast<double>(std::max<std::size_t>(1, secure_pred.size())));
  json.key("max_weight_diff").num(max_diff);
  json.end_object();
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--obs-dir") {
      args.obs_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.out.empty() || args.seconds <= 0.0 ||
      (args.trace && args.obs_dir.empty())) {
    throw std::invalid_argument(
        "usage: perfbench_driver --workload W --seed N --seconds S "
        "--trace 0|1 --out FILE [--obs-dir DIR]");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const RunContext context = calibrate();

    Json json;
    json.begin_object();
    if (args.workload == "serve_poisson") {
      run_serving(args, context, /*open_loop=*/true, json);
    } else if (args.workload == "serve_burst") {
      run_serving(args, context, /*open_loop=*/false, json);
    } else if (args.workload == "train_cnn") {
      run_train(args, context, json);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
      return 2;
    }
    json.end_object();
    std::FILE* file = std::fopen(args.out.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
      return 2;
    }
    std::fprintf(file, "%s\n", json.text().c_str());
    std::fclose(file);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 1;
  }
}
