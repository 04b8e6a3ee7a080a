#include "deco/core/learner.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "deco/core/telemetry.h"
#include "deco/nn/loss.h"
#include "deco/nn/optim.h"
#include "deco/tensor/check.h"
#include "deco/tensor/ops.h"
#include "deco/tensor/serialize.h"

namespace deco::core {

namespace {
double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- save_state / load_state helpers ----------------------------------------

constexpr char kStateMagic[8] = {'D', 'E', 'C', 'O', 'L', 'S', 'A', 'V'};
constexpr uint32_t kStateVersion = 2;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  DECO_CHECK(static_cast<bool>(is), "learner state truncated");
  return v;
}

void write_string(std::ostream& os, const std::string& s) {
  write_pod(os, static_cast<uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is) {
  const uint32_t n = read_pod<uint32_t>(is);
  DECO_CHECK(n < 4096, "learner state: bad string length");
  std::string s(n, '\0');
  is.read(s.data(), n);
  DECO_CHECK(static_cast<bool>(is), "learner state: string truncated");
  return s;
}

void write_rng_state(std::ostream& os, const RngState& st) {
  for (uint64_t w : st.s) write_pod(os, w);
  write_pod(os, static_cast<uint8_t>(st.has_cached_normal ? 1 : 0));
  write_pod(os, st.cached_normal);
}

RngState read_rng_state(std::istream& is) {
  RngState st;
  for (auto& w : st.s) w = read_pod<uint64_t>(is);
  st.has_cached_normal = read_pod<uint8_t>(is) != 0;
  st.cached_normal = read_pod<double>(is);
  return st;
}
}  // namespace

void OnDeviceLearner::save_state(const std::string& path) const {
  (void)path;
  DECO_CHECK(false, name() + ": save_state is not supported by this learner "
                    "(supports_state() is false)");
}

void OnDeviceLearner::load_state(const std::string& path) {
  (void)path;
  DECO_CHECK(false, name() + ": load_state is not supported by this learner "
                    "(supports_state() is false)");
}

void DecoConfig::validate() const {
  DECO_CHECK(ipc >= 1, "DecoConfig: ipc must be >= 1");
  DECO_CHECK(threshold_m >= 0.0f && threshold_m <= 1.0f,
             "DecoConfig: threshold_m must be in [0, 1]");
  DECO_CHECK(beta >= 1, "DecoConfig: beta must be >= 1");
  DECO_CHECK(model_update_epochs >= 0,
             "DecoConfig: model_update_epochs must be >= 0");
  DECO_CHECK(lr_model > 0.0f, "DecoConfig: lr_model must be > 0");
  DECO_CHECK(weight_decay >= 0.0f, "DecoConfig: weight_decay must be >= 0");
  DECO_CHECK(train_batch >= 1, "DecoConfig: train_batch must be >= 1");
  DECO_CHECK(condenser.iterations >= 1,
             "DecoConfig: condenser.iterations must be >= 1");
  DECO_CHECK(condenser.lr_syn > 0.0f, "DecoConfig: condenser.lr_syn must be > 0");
  DECO_CHECK(condenser.alpha >= 0.0f, "DecoConfig: condenser.alpha must be >= 0");
  guard.validate();
  storage.validate();
}

DecoLearner::DecoLearner(nn::ConvNet& model, DecoConfig config, uint64_t seed)
    : DecoLearner(model, config, seed,
                  std::make_unique<condense::DecoCondenser>(
                      model.config(), config.condenser, seed ^ 0xD3C0ull)) {}

DecoLearner::DecoLearner(nn::ConvNet& model, DecoConfig config, uint64_t seed,
                         std::unique_ptr<condense::Condenser> condenser)
    : model_(model),
      config_(config),
      rng_(seed),
      buffer_(model.config().num_classes, config.ipc, model.config().in_channels,
              model.config().image_h, model.config().image_w),
      condenser_(std::move(condenser)),
      guard_(config.guard) {
  DECO_CHECK(condenser_ != nullptr, "DecoLearner: null condenser");
  config_.validate();
  buffer_.set_storage(config_.storage.cache_dtype, config_.storage.block);
}

std::string DecoLearner::name() const { return condenser_->name(); }

void DecoLearner::init_buffer_from(const data::Dataset& labeled) {
  buffer_.init_from_dataset(labeled, rng_);
  if (config_.condenser.learn_soft_labels && !buffer_.soft_labels_enabled())
    buffer_.enable_soft_labels();
  // The warm start goes through quantized storage too, so training always
  // sees exactly what the cache can represent.
  buffer_.commit_storage();
}

SegmentReport DecoLearner::observe_segment(const Tensor& images) {
  DECO_TRACE_SCOPE("learner/segment");
  {
    static telemetry::Counter& c = telemetry::counter("learner/segments");
    c.add(1);
  }
  const int64_t n = images.dim(0);
  const GuardStats stats_before = guard_.stats();

  SegmentReport report;

  // Screen the segment: frames with non-finite pixels (sensor faults, ISP
  // bugs) are quarantined before they can reach the model or the buffer.
  std::vector<int64_t> usable;
  const Tensor* x_in = &images;
  Tensor x_screened;
  bool screened = false;
  if (guard_.enabled()) {
    usable = guard_.screen_frames(images);
    if (static_cast<int64_t>(usable.size()) < n) {
      screened = true;
      if (usable.empty()) {
        // Nothing survived: report the segment as skipped but keep the
        // stream protocol (segment counting, β-schedule) intact.
        guard_.note_segment_skipped();
        report.pseudo_labels.assign(static_cast<size_t>(n), -1);
        report.confidences.assign(static_cast<size_t>(n), 0.0f);
        const GuardStats& s = guard_.stats();
        report.frames_quarantined = s.frames_quarantined - stats_before.frames_quarantined;
        report.segment_skipped = 1;
        ++segments_seen_;
        if (segments_seen_ % config_.beta == 0) update_model_now();
        return report;
      }
      x_screened = take(images, usable);
      x_in = &x_screened;
    }
  }

  // Majority voting can be ablated: threshold 0 keeps every class with at
  // least one prediction, i.e. plain self-training pseudo-labels.
  const float m = config_.use_majority_voting ? config_.threshold_m : 0.0f;
  PseudoLabelResult pl;
  {
    DECO_TRACE_SCOPE("learner/pseudo_label");
    pl = pseudo_label_segment(model_, *x_in, m);
  }

  if (!screened) {
    report.pseudo_labels = pl.labels;
    report.confidences = pl.confidences;
    report.retained = pl.retained;
  } else {
    // Map screened-segment indices back to positions in the full segment;
    // quarantined frames report label −1 / confidence 0 and are never
    // retained.
    report.pseudo_labels.assign(static_cast<size_t>(n), -1);
    report.confidences.assign(static_cast<size_t>(n), 0.0f);
    for (size_t i = 0; i < usable.size(); ++i) {
      report.pseudo_labels[static_cast<size_t>(usable[i])] = pl.labels[i];
      report.confidences[static_cast<size_t>(usable[i])] = pl.confidences[i];
    }
    report.retained.reserve(pl.retained.size());
    for (int64_t i : pl.retained)
      report.retained.push_back(usable[static_cast<size_t>(i)]);
  }
  report.active_class_count = static_cast<int64_t>(pl.active_classes.size());

  if (!pl.retained.empty() && !pl.active_classes.empty()) {
    Tensor x_real = take(*x_in, pl.retained);
    std::vector<int64_t> y_real;
    std::vector<float> w_real;
    y_real.reserve(pl.retained.size());
    w_real.reserve(pl.retained.size());
    for (int64_t i : pl.retained) {
      y_real.push_back(pl.labels[static_cast<size_t>(i)]);
      w_real.push_back(pl.confidences[static_cast<size_t>(i)]);
    }

    condense::CondenseContext ctx;
    ctx.buffer = &buffer_;
    ctx.x_real = &x_real;
    ctx.y_real = &y_real;
    ctx.w_real = &w_real;
    ctx.active_classes = &pl.active_classes;
    ctx.deployed_model = &model_;
    ctx.rng = &rng_;
    ctx.guard = guard_.enabled() ? &guard_ : nullptr;

    const double t0 = now_seconds();
    {
      DECO_TRACE_SCOPE("learner/condense");
      condenser_->condense(ctx);
    }
    condense_seconds_ += now_seconds() - t0;

    // The segment's refinements become durable by passing through the
    // (possibly quantized) canonical storage: the working images are
    // re-encoded and refreshed to the decoded values, so quantization noise
    // is visible to subsequent training rather than hidden until a save.
    buffer_.commit_storage();

    if (auto* deco = dynamic_cast<condense::DecoCondenser*>(condenser_.get());
        deco != nullptr && !deco->last_distances().empty()) {
      report.condense_distance = deco->last_distances().back();
    }
  }

  ++segments_seen_;
  if (segments_seen_ % config_.beta == 0) update_model_now();

  const GuardStats& s = guard_.stats();
  report.frames_quarantined =
      s.frames_quarantined - stats_before.frames_quarantined;
  report.steps_rolled_back =
      s.steps_rolled_back - stats_before.steps_rolled_back;
  report.batches_skipped = s.batches_skipped - stats_before.batches_skipped;
  report.grads_clipped = s.grads_clipped - stats_before.grads_clipped;
  return report;
}

void DecoLearner::update_model_now() {
  DECO_TRACE_SCOPE("learner/model_update");
  NumericGuard* guard = guard_.enabled() ? &guard_ : nullptr;
  if (buffer_.soft_labels_enabled()) {
    std::vector<int64_t> all(static_cast<size_t>(buffer_.size()));
    for (int64_t r = 0; r < buffer_.size(); ++r) all[static_cast<size_t>(r)] = r;
    train_classifier_soft(model_, buffer_.images(), buffer_.soft_targets(all),
                          config_.model_update_epochs, config_.lr_model,
                          config_.weight_decay, config_.train_batch, rng_,
                          guard);
    return;
  }
  train_classifier(model_, buffer_.images(), buffer_.labels(),
                   config_.model_update_epochs, config_.lr_model,
                   config_.weight_decay, config_.train_batch, rng_, guard);
}

int64_t DecoLearner::memory_bytes() const {
  // The image cache counts at its *stored* size (post-quantization); soft
  // logits and model parameters stay resident as fp32.
  int64_t floats = 0;
  if (buffer_.soft_labels_enabled())
    floats += buffer_.size() * buffer_.num_classes();
  for (const nn::ParamRef& p : model_.parameters())
    floats += p.value->numel();
  return buffer_.stored_bytes() + floats * static_cast<int64_t>(sizeof(float));
}

int64_t DecoLearner::cache_stored_bytes() const {
  return buffer_.stored_bytes();
}

int64_t DecoLearner::cache_logical_bytes() const {
  return buffer_.logical_bytes();
}

void DecoLearner::save_state(const std::string& path) const {
  // Serialize body (everything after the magic) to memory, append a CRC32
  // trailer, and write the whole file atomically: a power loss mid-save
  // preserves the previous state file.
  std::ostringstream os(std::ios::binary);
  write_pod(os, kStateVersion);
  write_pod(os, segments_seen_);
  write_rng_state(os, rng_.state());

  auto params = model_.parameters();
  write_pod(os, static_cast<uint32_t>(params.size()));
  const StoragePolicy& sp = config_.storage;
  for (const nn::ParamRef& p : params) {
    write_string(os, p.name);
    // fp32 keeps the legacy v2 record (bit-exact resume, stable files);
    // fp16/int8 emit v3 records at the checkpoint dtype.
    if (sp.checkpoint_dtype == DType::kF32)
      write_tensor(os, *p.value);
    else
      write_tensor(os, *p.value, sp.checkpoint_dtype, sp.block);
  }

  // A quantized cache persists its canonical stored bytes verbatim (no
  // re-encode), which is what makes save -> load -> save byte-identical.
  if (sp.cache_dtype == DType::kF32)
    write_tensor(os, buffer_.images());
  else
    write_qtensor(os, buffer_.stored_images());
  const uint8_t soft = buffer_.soft_labels_enabled() ? 1 : 0;
  write_pod(os, soft);
  if (soft != 0)
    write_tensor(os, const_cast<condense::SyntheticBuffer&>(buffer_).label_logits());

  write_string(os, condenser_->name());
  condenser_->save_state(os);
  DECO_CHECK(static_cast<bool>(os), "save_state: serialization failed");

  const std::string body = os.str();
  std::string file(kStateMagic, sizeof(kStateMagic));
  file += body;
  const uint32_t crc = crc32(body.data(), body.size());
  file.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  atomic_write_file(path, file);
}

void DecoLearner::load_state(const std::string& path) {
  std::string file;
  {
    std::ifstream is(path, std::ios::binary);
    DECO_CHECK(is.is_open(), "load_state: cannot open " + path);
    std::ostringstream buf;
    buf << is.rdbuf();
    file = buf.str();
  }
  DECO_CHECK(file.size() >= sizeof(kStateMagic) + sizeof(uint32_t) * 2,
             "load_state: file too small");
  DECO_CHECK(std::equal(kStateMagic, kStateMagic + sizeof(kStateMagic),
                        file.begin()),
             "load_state: not a DECO learner state file");
  const size_t body_len =
      file.size() - sizeof(kStateMagic) - sizeof(uint32_t);
  uint32_t stored = 0;
  std::memcpy(&stored, file.data() + file.size() - sizeof(uint32_t),
              sizeof(uint32_t));
  const uint32_t crc = crc32(file.data() + sizeof(kStateMagic), body_len);
  DECO_CHECK(stored == crc, "load_state: CRC mismatch (corrupted state file)");

  std::istringstream is(file.substr(sizeof(kStateMagic), body_len),
                        std::ios::binary);
  const uint32_t version = read_pod<uint32_t>(is);
  DECO_CHECK(version == kStateVersion,
             "load_state: unsupported version " + std::to_string(version));
  const int64_t segments = read_pod<int64_t>(is);
  DECO_CHECK(segments >= 0, "load_state: negative segment counter");
  const RngState rng_state = read_rng_state(is);

  // Stage everything and validate against the live model/buffer before any
  // commit, so a mismatched file never leaves the learner half-loaded.
  auto params = model_.parameters();
  const uint32_t count = read_pod<uint32_t>(is);
  DECO_CHECK(count == params.size(),
             "load_state: parameter count mismatch (file " +
                 std::to_string(count) + ", model " +
                 std::to_string(params.size()) + ")");
  std::vector<Tensor> staged;
  staged.reserve(params.size());
  for (const nn::ParamRef& p : params) {
    const std::string name = read_string(is);
    DECO_CHECK(name == p.name,
               "load_state: parameter order mismatch: expected " + p.name +
                   ", found " + name);
    Tensor t = read_tensor(is);
    DECO_CHECK(t.shape() == p.value->shape(),
               "load_state: shape mismatch for " + p.name);
    staged.push_back(std::move(t));
  }

  // The buffer record is staged in its stored form: a quantized cache is
  // restored byte-for-byte, an fp32 cache decodes to the exact saved bits.
  QTensor qimages = read_qtensor(is);
  DECO_CHECK(qimages.shape() == buffer_.images().shape(),
             "load_state: buffer shape mismatch (buffer " +
                 buffer_.images().shape_str() + ")");
  if (config_.storage.cache_dtype == DType::kF32) {
    DECO_CHECK(qimages.dtype() == DType::kF32,
               "load_state: state cache dtype " + dtype_name(qimages.dtype()) +
                   " does not match the configured fp32 cache (set "
                   "deco.cache_dtype to match the saved state)");
  } else {
    DECO_CHECK(qimages.dtype() == config_.storage.cache_dtype &&
                   qimages.block() == config_.storage.block,
               "load_state: state cache dtype/block (" +
                   dtype_name(qimages.dtype()) +
                   ") does not match the configured deco.cache_dtype (" +
                   dtype_name(config_.storage.cache_dtype) + ")");
  }
  const uint8_t soft = read_pod<uint8_t>(is);
  Tensor logits;
  if (soft != 0) {
    logits = read_tensor(is);
    DECO_CHECK(logits.ndim() == 2 && logits.dim(0) == buffer_.size() &&
                   logits.dim(1) == buffer_.num_classes(),
               "load_state: soft-label logits shape mismatch");
  }
  const std::string condenser_name = read_string(is);
  DECO_CHECK(condenser_name == condenser_->name(),
             "load_state: condenser mismatch (file '" + condenser_name +
                 "', learner '" + condenser_->name() + "')");

  // Commit.
  for (size_t i = 0; i < params.size(); ++i)
    *params[i].value = std::move(staged[i]);
  if (config_.storage.cache_dtype == DType::kF32)
    buffer_.images() = qimages.decode();
  else
    buffer_.restore_stored(std::move(qimages));
  if (soft != 0) {
    if (!buffer_.soft_labels_enabled()) buffer_.enable_soft_labels();
    buffer_.label_logits() = std::move(logits);
  }
  segments_seen_ = segments;
  rng_.set_state(rng_state);
  condenser_->load_state(is);  // integrity already established by the CRC
}

void train_classifier(nn::ConvNet& model, const Tensor& images,
                      const std::vector<int64_t>& labels, int64_t epochs,
                      float lr, float weight_decay, int64_t batch_size,
                      Rng& rng, NumericGuard* guard) {
  const int64_t n = images.dim(0);
  DECO_CHECK(n == static_cast<int64_t>(labels.size()),
             "train_classifier: label count mismatch");
  if (n == 0) return;
  const bool guarded = guard != nullptr && guard->enabled();
  nn::SgdMomentum opt(model, lr, 0.9f, weight_decay);

  std::vector<int64_t> order(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;

  for (int64_t e = 0; e < epochs; ++e) {
    rng.shuffle(order);
    for (int64_t start = 0; start < n; start += batch_size) {
      const int64_t end = std::min(n, start + batch_size);
      std::vector<int64_t> idx(order.begin() + start, order.begin() + end);
      Tensor xb = take(images, idx);
      std::vector<int64_t> yb;
      yb.reserve(idx.size());
      for (int64_t i : idx) yb.push_back(labels[static_cast<size_t>(i)]);

      model.zero_grad();
      Tensor logits = model.forward(xb);
      auto ce = nn::weighted_cross_entropy(logits, yb);
      if (guarded && !guard->admit_loss(ce.loss)) {
        model.zero_grad();
        continue;
      }
      model.backward(ce.grad_logits, nn::GradNeed::kParams);
      if (guarded && !guard->admit_gradients(model.parameters())) {
        model.zero_grad();
        continue;
      }
      opt.step();
      model.zero_grad();
    }
  }
}

void train_classifier_soft(nn::ConvNet& model, const Tensor& images,
                           const Tensor& targets, int64_t epochs, float lr,
                           float weight_decay, int64_t batch_size, Rng& rng,
                           NumericGuard* guard) {
  const int64_t n = images.dim(0);
  DECO_CHECK(targets.ndim() == 2 && targets.dim(0) == n,
             "train_classifier_soft: target count mismatch");
  if (n == 0) return;
  const bool guarded = guard != nullptr && guard->enabled();
  nn::SgdMomentum opt(model, lr, 0.9f, weight_decay);

  std::vector<int64_t> order(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;

  for (int64_t e = 0; e < epochs; ++e) {
    rng.shuffle(order);
    for (int64_t start = 0; start < n; start += batch_size) {
      const int64_t end = std::min(n, start + batch_size);
      std::vector<int64_t> idx(order.begin() + start, order.begin() + end);
      Tensor xb = take(images, idx);
      Tensor qb = take(targets, idx);
      model.zero_grad();
      Tensor logits = model.forward(xb);
      auto ce = nn::soft_cross_entropy(logits, qb);
      if (guarded && !guard->admit_loss(ce.loss)) {
        model.zero_grad();
        continue;
      }
      model.backward(ce.grad_logits, nn::GradNeed::kParams);
      if (guarded && !guard->admit_gradients(model.parameters())) {
        model.zero_grad();
        continue;
      }
      opt.step();
      model.zero_grad();
    }
  }
}

}  // namespace deco::core
