#include <gtest/gtest.h>

#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/drb/drb.hpp"
#include "hpcgpt/minilang/render.hpp"
#include "hpcgpt/nn/adam.hpp"
#include "hpcgpt/nn/sampler.hpp"

#include "generate_oracle.hpp"

namespace hpcgpt {
namespace {

using namespace hpcgpt::minilang;

// ---------------------------------------------------------- snippets

Program tiny_program() {
  Program p;
  p.name = "tiny";
  p.decls.push_back({"a", true, 8, 0});
  std::vector<Stmt> body;
  body.push_back(assign(array_ref("a", scalar_ref("i")), scalar_ref("i")));
  p.body.push_back(parallel_for("i", int_lit(0), int_lit(8), std::move(body)));
  return p;
}

TEST(RenderSnippet, OmitsBoilerplate) {
  const Program p = tiny_program();
  const std::string c = render_snippet(p, Flavor::C);
  EXPECT_EQ(c.find("#include"), std::string::npos);
  EXPECT_EQ(c.find("int main"), std::string::npos);
  EXPECT_EQ(c.find("int a[8]"), std::string::npos);
  EXPECT_NE(c.find("#pragma omp parallel for"), std::string::npos);
  EXPECT_NE(c.find("a[i] = i;"), std::string::npos);
}

TEST(RenderSnippet, FortranFlavour) {
  const std::string f = render_snippet(tiny_program(), Flavor::Fortran);
  EXPECT_EQ(f.find("program"), std::string::npos);
  EXPECT_NE(f.find("!$omp parallel do"), std::string::npos);
  EXPECT_NE(f.find("end do"), std::string::npos);
}

TEST(RenderSnippet, SnippetShorterThanFullRender) {
  Rng rng(3);
  for (const drb::Category c : drb::all_categories()) {
    const drb::TestCase tc = drb::generate_case(c, Flavor::C, rng);
    EXPECT_LT(render_snippet(tc.program, Flavor::C).size(),
              tc.source.size());
  }
}

TEST(RenderSnippet, OversizedSnippetExceedsTokenLimit) {
  // The Table 5 TSR mechanism end to end: an oversized case's prompt must
  // overflow the experiment token limit while a normal case fits.
  const text::BpeTokenizer tok = core::build_shared_tokenizer();
  core::ModelOptions spec = core::spec_for(core::BaseModel::Llama);
  spec.pretrain_steps = 0;
  core::HpcGpt model(spec, tok);
  Rng rng(9);
  const drb::TestCase normal = drb::generate_case(
      drb::Category::NumericalKernels, Flavor::C, rng);
  const drb::TestCase big = drb::generate_case(
      drb::Category::NumericalKernels, Flavor::C, rng, /*oversized=*/true);
  EXPECT_LE(model.prompt_tokens(render_snippet(normal.program, Flavor::C)),
            256u);
  EXPECT_GT(model.prompt_tokens(render_snippet(big.program, Flavor::C)),
            256u);
}

// ---------------------------------------------------------- nn extras

TEST(AdamExtras, WeightDecayShrinksWeights) {
  nn::Parameter p("w", 1, 8);
  p.value.fill(4.0f);
  p.grad.fill(0.0f);  // no gradient signal: only decay acts
  nn::Adam opt(nn::AdamConfig{.learning_rate = 0.1f,
                              .weight_decay = 0.1f,
                              .grad_clip = 0.0f});
  nn::ParameterList params{&p};
  for (int i = 0; i < 5; ++i) opt.step(params);
  for (const float w : p.value.flat()) {
    EXPECT_LT(w, 4.0f);
    EXPECT_GT(w, 3.0f);
  }
}

TEST(SamplerExtras, TemperatureSamplingSeededDeterministic) {
  nn::TransformerConfig c;
  c.vocab_size = 16;
  c.d_model = 8;
  c.n_heads = 2;
  c.n_layers = 1;
  c.d_ff = 16;
  c.max_seq = 16;
  nn::Transformer model(c, 5);
  nn::SampleOptions opts;
  opts.temperature = 1.0f;
  opts.max_new_tokens = 8;
  opts.seed = 1234;
  using test_oracle::generate_uncached;
  const auto a = generate_uncached(model, {1, 2, 3}, opts);
  const auto b = generate_uncached(model, {1, 2, 3}, opts);
  EXPECT_EQ(a, b);
  opts.seed = 999;
  const auto other = generate_uncached(model, {1, 2, 3}, opts);
  // Overwhelmingly likely to differ for an untrained model.
  EXPECT_NE(a, other);
}

TEST(ModelZooSpecs, RegistryMatchesPaperRoles) {
  using core::BaseModel;
  const auto llama = core::spec_for(BaseModel::Llama);
  const auto llama2 = core::spec_for(BaseModel::Llama2);
  const auto gpt35 = core::spec_for(BaseModel::Gpt35);
  const auto gpt4 = core::spec_for(BaseModel::Gpt4);
  // LLaMA 2 "trained on 40% more data".
  EXPECT_GT(llama2.pretrain_steps, llama.pretrain_steps);
  // The commercial sims have incidental HPC exposure; LLaMA has none.
  EXPECT_EQ(llama.hpc_exposure, 0u);
  EXPECT_GT(gpt4.hpc_exposure, gpt35.hpc_exposure);
  // Every model shares the same architecture (only data differs).
  EXPECT_EQ(llama.config.d_model, gpt4.config.d_model);
  EXPECT_EQ(core::base_model_name(BaseModel::Gpt4), "GPT-4");
}

}  // namespace
}  // namespace hpcgpt
