#include "soc/benchmarks.h"

#include <array>

#include "util/error.h"
#include "util/rng.h"

namespace nocdr {

namespace {

/// Adds a linear pipeline src -> a -> b -> ... with one bandwidth.
void AddChain(CommunicationGraph& g, const std::vector<CoreId>& stages,
              double bandwidth) {
  for (std::size_t i = 0; i + 1 < stages.size(); ++i) {
    g.AddFlow(stages[i], stages[i + 1], bandwidth);
  }
}

SocBenchmark BuildD26Media() {
  SocBenchmark b;
  b.name = BenchmarkName(SocBenchmarkId::kD26Media);
  CommunicationGraph& g = b.traffic;

  // Hubs.
  const CoreId arm = g.AddCore("arm");
  const CoreId dram = g.AddCore("dram");
  const CoreId sram = g.AddCore("sram");
  const CoreId dma = g.AddCore("dma");

  // Video pipeline.
  const CoreId vin = g.AddCore("vin");
  const CoreId mpeg = g.AddCore("mpeg");
  const CoreId idct = g.AddCore("idct");
  const CoreId filt = g.AddCore("filter");
  const CoreId scal = g.AddCore("scaler");
  const CoreId disp = g.AddCore("display");

  // Audio pipeline.
  const CoreId adc = g.AddCore("adc");
  const CoreId aenc = g.AddCore("audio_enc");
  const CoreId adec = g.AddCore("audio_dec");
  const CoreId dac = g.AddCore("dac");

  // Wireless subsystem.
  const CoreId rf = g.AddCore("rf");
  const CoreId bbd = g.AddCore("baseband");
  const CoreId mac = g.AddCore("mac");
  const CoreId viterbi = g.AddCore("viterbi");

  // Imaging subsystem.
  const CoreId cam = g.AddCore("camera");
  const CoreId isp = g.AddCore("isp");
  const CoreId jpeg = g.AddCore("jpeg");

  // Peripherals.
  const CoreId usb = g.AddCore("usb");
  const CoreId sdio = g.AddCore("sdio");
  const CoreId uart = g.AddCore("uart");
  const CoreId gpio = g.AddCore("gpio");
  const CoreId crypto = g.AddCore("crypto");

  Require(g.CoreCount() == 26, "D26_media must have 26 cores");

  // Video: camera-in through decode to display, staged via memory.
  AddChain(g, {vin, mpeg, idct, filt, scal, disp}, 320.0);
  g.AddFlow(mpeg, dram, 240.0);
  g.AddFlow(dram, idct, 240.0);
  g.AddFlow(scal, dram, 160.0);
  g.AddFlow(dram, disp, 400.0);

  // Audio.
  AddChain(g, {adc, aenc, sram}, 24.0);
  AddChain(g, {sram, adec, dac}, 24.0);
  g.AddFlow(arm, adec, 8.0);

  // Wireless: receive and transmit directions.
  AddChain(g, {rf, bbd, viterbi, mac}, 60.0);
  g.AddFlow(mac, arm, 40.0);
  g.AddFlow(arm, mac, 40.0);
  AddChain(g, {mac, bbd, rf}, 60.0);
  g.AddFlow(mac, crypto, 30.0);
  g.AddFlow(crypto, dram, 30.0);

  // Imaging.
  AddChain(g, {cam, isp, jpeg}, 180.0);
  g.AddFlow(jpeg, dram, 90.0);
  g.AddFlow(isp, disp, 120.0);

  // Control and DMA hub-and-spoke.
  for (CoreId periph : {usb, sdio, uart, gpio}) {
    g.AddFlow(arm, periph, 6.0);
    g.AddFlow(periph, arm, 6.0);
  }
  g.AddFlow(usb, dma, 64.0);
  g.AddFlow(sdio, dma, 48.0);
  g.AddFlow(dma, dram, 120.0);
  g.AddFlow(dram, dma, 120.0);
  g.AddFlow(arm, dram, 80.0);
  g.AddFlow(dram, arm, 80.0);
  g.AddFlow(arm, sram, 40.0);
  g.AddFlow(sram, arm, 40.0);

  return b;
}

SocBenchmark BuildD36(std::size_t fanout, std::string name) {
  SocBenchmark b;
  b.name = std::move(name);
  CommunicationGraph& g = b.traffic;
  constexpr std::size_t kCores = 36;
  for (std::size_t i = 0; i < kCores; ++i) {
    g.AddCore("p" + std::to_string(i));
  }
  // Strides chosen co-prime-ish with 36 so destinations spread over the
  // whole fabric; every core sends to exactly `fanout` others.
  constexpr std::array<std::size_t, 8> kStrides = {1, 5, 7, 11, 13, 17, 19,
                                                   23};
  Require(fanout >= 1 && fanout <= kStrides.size(),
          "D36 fan-out out of supported range");
  Rng rng(0xD36 + fanout);  // deterministic per fan-out
  for (std::size_t i = 0; i < kCores; ++i) {
    for (std::size_t j = 0; j < fanout; ++j) {
      const std::size_t dst = (i + kStrides[j]) % kCores;
      const double bandwidth =
          static_cast<double>(rng.NextInRange(20, 160));
      g.AddFlow(CoreId(i), CoreId(dst), bandwidth);
    }
  }
  return b;
}

SocBenchmark BuildD35Bot() {
  SocBenchmark b;
  b.name = BenchmarkName(SocBenchmarkId::kD35Bot);
  CommunicationGraph& g = b.traffic;

  // 5 sensing clusters x 6 cores + fusion core per cluster feeds a
  // central planner; planner drives 4 actuator cores; memory hub.
  const CoreId planner = g.AddCore("planner");
  const CoreId mem = g.AddCore("mem");
  const CoreId safety = g.AddCore("safety");
  std::vector<CoreId> actuators;
  for (int i = 0; i < 4; ++i) {
    actuators.push_back(g.AddCore("act" + std::to_string(i)));
  }
  for (int cl = 0; cl < 4; ++cl) {
    const CoreId fusion = g.AddCore("fusion" + std::to_string(cl));
    for (int s = 0; s < 6; ++s) {
      const CoreId sensor =
          g.AddCore("s" + std::to_string(cl) + "_" + std::to_string(s));
      g.AddFlow(sensor, fusion, 30.0 + 10.0 * s);
    }
    g.AddFlow(fusion, planner, 90.0);
    g.AddFlow(fusion, mem, 60.0);
    g.AddFlow(planner, fusion, 20.0);
  }
  Require(g.CoreCount() == 35, "D35_bot must have 35 cores");
  for (CoreId act : actuators) {
    g.AddFlow(planner, act, 25.0);
    g.AddFlow(act, safety, 10.0);
  }
  g.AddFlow(planner, mem, 120.0);
  g.AddFlow(mem, planner, 120.0);
  g.AddFlow(safety, planner, 15.0);
  return b;
}

SocBenchmark BuildD38Tvo() {
  SocBenchmark b;
  b.name = BenchmarkName(SocBenchmarkId::kD38Tvo);
  CommunicationGraph& g = b.traffic;

  const CoreId host = g.AddCore("host");
  const CoreId ddr0 = g.AddCore("ddr0");
  const CoreId ddr1 = g.AddCore("ddr1");
  const CoreId mixer = g.AddCore("mixer");
  const CoreId tvenc = g.AddCore("tv_enc");
  const CoreId hdmi = g.AddCore("hdmi");
  const CoreId audio = g.AddCore("audio");
  const CoreId osd = g.AddCore("osd");

  // Two independent video pipelines of 13 stages each.
  std::array<CoreId, 2> tails{};
  for (int p = 0; p < 2; ++p) {
    std::vector<CoreId> stages;
    const std::string prefix = "v" + std::to_string(p) + "_";
    for (const char* stage :
         {"tuner", "demod", "ts_demux", "vdec", "deint", "nr", "sclr"}) {
      stages.push_back(g.AddCore(prefix + stage));
    }
    AddChain(g, stages, 420.0);
    const CoreId ddr = p == 0 ? ddr0 : ddr1;
    g.AddFlow(stages[3], ddr, 300.0);  // decoder reference frames
    g.AddFlow(ddr, stages[4], 300.0);
    g.AddFlow(stages.back(), mixer, 380.0);
    tails[p] = stages.back();
  }
  // Picture-in-picture cross traffic between the pipelines' scalers.
  g.AddFlow(tails[0], ddr1, 120.0);
  g.AddFlow(tails[1], ddr0, 120.0);

  // Mix and output.
  g.AddFlow(osd, mixer, 90.0);
  g.AddFlow(host, osd, 20.0);
  g.AddFlow(mixer, tvenc, 500.0);
  g.AddFlow(mixer, hdmi, 500.0);
  g.AddFlow(audio, hdmi, 30.0);
  g.AddFlow(host, audio, 10.0);
  g.AddFlow(mixer, ddr0, 250.0);
  g.AddFlow(ddr0, mixer, 250.0);

  // Host control plane over remaining blocks.
  std::vector<CoreId> ctrl;
  for (const char* name : {"i2c", "ir", "flash", "eth", "usb_tv", "dsp_post",
                           "cc_dec", "vbi", "smartcard", "spdif", "scart",
                           "ypbpr", "vdac", "ts_in", "pvr", "epg"}) {
    ctrl.push_back(g.AddCore(name));
  }
  Require(g.CoreCount() == 38, "D38_tvo must have 38 cores");
  for (CoreId c : ctrl) {
    g.AddFlow(host, c, 5.0);
    g.AddFlow(c, host, 5.0);
  }
  g.AddFlow(host, ddr0, 60.0);
  g.AddFlow(ddr0, host, 60.0);
  return b;
}

}  // namespace

SocBenchmark MakeBenchmark(SocBenchmarkId id) {
  switch (id) {
    case SocBenchmarkId::kD26Media:
      return BuildD26Media();
    case SocBenchmarkId::kD36_4:
      return BuildD36(4, BenchmarkName(id));
    case SocBenchmarkId::kD36_6:
      return BuildD36(6, BenchmarkName(id));
    case SocBenchmarkId::kD36_8:
      return BuildD36(8, BenchmarkName(id));
    case SocBenchmarkId::kD35Bot:
      return BuildD35Bot();
    case SocBenchmarkId::kD38Tvo:
      return BuildD38Tvo();
  }
  throw InvalidModelError("MakeBenchmark: unknown benchmark id");
}

SocBenchmark MakeD36WithFanout(std::size_t fanout) {
  return BuildD36(fanout, "D36_" + std::to_string(fanout));
}

}  // namespace nocdr
