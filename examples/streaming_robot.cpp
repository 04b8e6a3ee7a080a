// Streaming-robot scenario: the motivating deployment of the paper — a robot
// camera produces a long, temporally-correlated video stream of household
// objects across different rooms (CORe50-style: 10 classes, 11 environments),
// with no labels and each frame seen once.
//
// This example runs DECO and the two strongest selection baselines (FIFO,
// Selective-BP) side by side on the SAME stream with a tight buffer of one
// image per class, printing a live accuracy race — the Fig. 3 experience in
// miniature.
//
// Build & run:  ./build/examples/streaming_robot
#include <cstdio>
#include <memory>
#include <vector>

#include "deco/baselines/replay.h"
#include "deco/core/learner.h"
#include "deco/data/stream.h"
#include "deco/data/world.h"
#include "deco/eval/metrics.h"

using namespace deco;

int main() {
  data::ProceduralImageWorld world(data::core50_spec(), 21);
  data::Dataset labeled = world.make_labeled_set(6, 1);
  data::Dataset test = world.make_test_set(30, 2);

  nn::ConvNetConfig mc;
  mc.in_channels = 3;
  mc.image_h = mc.image_w = 16;
  mc.num_classes = 10;
  mc.width = 32;
  mc.depth = 3;

  // One independently pre-trained model per learner, identical weights.
  Rng rng(4);
  nn::ConvNet proto(mc, rng);
  std::vector<int64_t> all(static_cast<size_t>(labeled.size()));
  for (int64_t i = 0; i < labeled.size(); ++i) all[static_cast<size_t>(i)] = i;
  core::train_classifier(proto, labeled.batch(all), labeled.labels(), 20,
                         1e-3f, 5e-4f, 32, rng);

  auto m_deco = nn::clone_convnet(proto);
  auto m_fifo = nn::clone_convnet(proto);
  auto m_sbp = nn::clone_convnet(proto);

  const int64_t kIpc = 1;  // strictest buffer: ONE image per class
  core::DecoConfig dc;
  dc.ipc = kIpc;
  dc.beta = 4;
  dc.model_update_epochs = 10;
  core::DecoLearner deco(*m_deco, dc, 5);
  deco.init_buffer_from(labeled);

  // The baselines run DECO's schedule: they take dc's LearnerConfig part.
  baselines::BaselineLearner fifo(*m_fifo, baselines::Strategy::kFifo, dc, 6);
  fifo.init_buffer_from(labeled);
  baselines::BaselineLearner sbp(*m_sbp, baselines::Strategy::kSelectiveBp, dc,
                                 7);
  sbp.init_buffer_from(labeled);

  data::StreamConfig sc;
  sc.stc = 32;
  sc.segment_size = 32;
  sc.total_segments = 12;
  data::TemporalStream stream(world, sc, 8);

  std::printf("buffer budget: %lld samples total (IpC=1, 10 classes)\n",
              static_cast<long long>(kIpc * 10));
  std::printf("%8s  %8s  %8s  %8s\n", "samples", "DECO", "FIFO", "Sel-BP");
  std::printf("%8s  %7.1f%%  %7.1f%%  %7.1f%%   (pre-deployment)\n", "0",
              eval::accuracy(*m_deco, test), eval::accuracy(*m_fifo, test),
              eval::accuracy(*m_sbp, test));

  data::Segment seg;
  while (stream.next(seg)) {
    deco.observe_segment(seg.images);
    fifo.observe_segment(seg.images);
    sbp.observe_segment(seg.images);
    if (stream.segments_emitted() % 4 == 0) {
      std::printf("%8lld  %7.1f%%  %7.1f%%  %7.1f%%\n",
                  static_cast<long long>(stream.samples_emitted()),
                  eval::accuracy(*m_deco, test), eval::accuracy(*m_fifo, test),
                  eval::accuracy(*m_sbp, test));
    }
  }
  std::printf("\nDECO condensation time: %.1fs — the price of not throwing "
              "information away.\n",
              deco.condense_seconds());
  return 0;
}
