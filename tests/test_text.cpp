#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hpcgpt/support/error.hpp"
#include "hpcgpt/support/strings.hpp"
#include "hpcgpt/text/chunker.hpp"
#include "hpcgpt/text/similarity.hpp"
#include "hpcgpt/text/tokenizer.hpp"

namespace hpcgpt::text {
namespace {

// ---------------------------------------------------------------- BPE

std::vector<std::string> tiny_corpus() {
  return {
      "#pragma omp parallel for",
      "#pragma omp parallel for reduction(+:sum)",
      "for (int i = 0; i < n; i++) a[i] = b[i] + c[i];",
      "the data race occurs when two threads write the same variable",
      "the data race detection tool reports a data race",
  };
}

TEST(BpeTokenizer, UntrainedEncodesBytes) {
  BpeTokenizer tok;
  const auto ids = tok.encode("abc");
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], 'a');
  EXPECT_EQ(ids[2], 'c');
  EXPECT_EQ(tok.vocab_size(), static_cast<std::size_t>(BpeTokenizer::kFirstMerge));
}

TEST(BpeTokenizer, RoundTripLossless) {
  BpeTokenizer tok;
  tok.train(tiny_corpus(), 400);
  for (const std::string& doc : tiny_corpus()) {
    EXPECT_EQ(tok.decode(tok.encode(doc)), doc);
  }
  // Arbitrary bytes (including non-ASCII) survive too.
  const std::string binary = "\x01\xff\x80 mixed \t text";
  EXPECT_EQ(tok.decode(tok.encode(binary)), binary);
}

TEST(BpeTokenizer, TrainingCompresses) {
  BpeTokenizer trained;
  trained.train(tiny_corpus(), 450);
  BpeTokenizer raw;
  const std::string doc = "the data race detection tool";
  EXPECT_LT(trained.encode(doc).size(), raw.encode(doc).size());
}

TEST(BpeTokenizer, VocabSizeIsBounded) {
  BpeTokenizer tok;
  tok.train(tiny_corpus(), 300);
  EXPECT_LE(tok.vocab_size(), 300u);
  EXPECT_GT(tok.merge_count(), 0u);
}

TEST(BpeTokenizer, MinPairCountStopsEarly) {
  BpeTokenizer tok;
  tok.train({"ab"}, 10000, /*min_pair_count=*/2);
  // "ab" appears once, so the single candidate pair is below threshold.
  EXPECT_EQ(tok.merge_count(), 0u);
}

TEST(BpeTokenizer, DeterministicTraining) {
  BpeTokenizer a;
  BpeTokenizer b;
  a.train(tiny_corpus(), 350);
  b.train(tiny_corpus(), 350);
  EXPECT_EQ(a.save(), b.save());
}

TEST(BpeTokenizer, SaveLoadRoundTrip) {
  BpeTokenizer tok;
  tok.train(tiny_corpus(), 380);
  const BpeTokenizer loaded = BpeTokenizer::load(tok.save());
  EXPECT_EQ(loaded.merge_count(), tok.merge_count());
  const std::string doc = "#pragma omp parallel for";
  EXPECT_EQ(loaded.encode(doc), tok.encode(doc));
}

TEST(BpeTokenizer, LoadRejectsBadMagic) {
  EXPECT_THROW(BpeTokenizer::load("nope 0\n"), ParseError);
  EXPECT_THROW(BpeTokenizer::load("bpe-v1 3\n1 2\n"), ParseError);
}

TEST(BpeTokenizer, SpecialTokensDecodeEmpty) {
  BpeTokenizer tok;
  EXPECT_EQ(tok.decode({BpeTokenizer::kBos, 'h', 'i', BpeTokenizer::kEos}),
            "hi");
}

TEST(BpeTokenizer, TrainRejectsTinyVocab) {
  BpeTokenizer tok;
  EXPECT_THROW(tok.train(tiny_corpus(), 10), InvalidArgument);
}

// ---------------------------------------------------------------- similarity

TEST(Similarity, RougeIdenticalIsOne) {
  EXPECT_DOUBLE_EQ(rouge_l("what dataset for clone detection",
                           "what dataset for clone detection"),
                   1.0);
}

TEST(Similarity, RougeDisjointIsZero) {
  EXPECT_DOUBLE_EQ(rouge_l("alpha beta", "gamma delta"), 0.0);
}

TEST(Similarity, RougeDetectsNearDuplicates) {
  const double sim = rouge_l(
      "What dataset can be used for clone detection tasks?",
      "What dataset can be used for the clone detection task?");
  EXPECT_GT(sim, 0.7);  // the Self-Instruct dedup threshold
}

TEST(Similarity, RougeCaseAndPunctuationInsensitive) {
  EXPECT_DOUBLE_EQ(rouge_l("Hello, World!", "hello world"), 1.0);
}

TEST(Similarity, RougeSymmetric) {
  const char* a = "data race detection in openmp programs";
  const char* b = "openmp data race analysis";
  EXPECT_DOUBLE_EQ(rouge_l(a, b), rouge_l(b, a));
}

TEST(Similarity, EmptyInputs) {
  EXPECT_DOUBLE_EQ(rouge_l("", ""), 1.0);
  EXPECT_DOUBLE_EQ(rouge_l("x", ""), 0.0);
  EXPECT_DOUBLE_EQ(jaccard_words("", ""), 1.0);
  EXPECT_DOUBLE_EQ(bigram_dice("", ""), 1.0);
}

TEST(Similarity, JaccardBounds) {
  const double j = jaccard_words("a b c d", "c d e f");
  EXPECT_NEAR(j, 2.0 / 6.0, 1e-12);
}

TEST(Similarity, BigramDiceOrderSensitive) {
  // Same unigrams, different order: Jaccard is 1 but bigram Dice is low.
  const char* a = "races cause data bugs";
  const char* b = "data races cause bugs";
  EXPECT_DOUBLE_EQ(jaccard_words(a, b), 1.0);
  EXPECT_LT(bigram_dice(a, b), 1.0);
}

// ---------------------------------------------------------------- chunker

TEST(Chunker, ShortDocumentSingleChunk) {
  const auto chunks = chunk_document("just a few words", {});
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], "just a few words");
}

TEST(Chunker, EmptyDocumentNoChunks) {
  EXPECT_TRUE(chunk_document("", {}).empty());
  EXPECT_TRUE(chunk_document("   \n  ", {}).empty());
}

TEST(Chunker, RespectsMaxWords) {
  std::string doc;
  for (int i = 0; i < 500; ++i) doc += 'w' + std::to_string(i) + ' ';
  ChunkOptions opt;
  opt.max_words = 100;
  opt.overlap_words = 10;
  const auto chunks = chunk_document(doc, opt);
  EXPECT_GT(chunks.size(), 4u);
  for (const auto& c : chunks) {
    EXPECT_LE(hpcgpt::strings::word_count(c), 100u);
  }
}

TEST(Chunker, OverlapCarriesWords) {
  std::string doc;
  for (int i = 0; i < 250; ++i) doc += 'w' + std::to_string(i) + ' ';
  ChunkOptions opt;
  opt.max_words = 100;
  opt.overlap_words = 20;
  const auto chunks = chunk_document(doc, opt);
  ASSERT_GE(chunks.size(), 2u);
  // Last 20 words of chunk 0 == first 20 words of chunk 1.
  EXPECT_NE(chunks[1].find("w80 "), std::string::npos);
}

TEST(Chunker, EveryWordAppearsInSomeChunk) {
  std::string doc;
  for (int i = 0; i < 333; ++i) doc += "tok" + std::to_string(i) + " ";
  const auto chunks = chunk_document(doc, {});
  std::string all;
  for (const auto& c : chunks) all += c + " ";
  for (int i = 0; i < 333; ++i) {
    EXPECT_NE(all.find("tok" + std::to_string(i) + " "), std::string::npos)
        << "word " << i << " missing";
  }
}

TEST(Chunker, CodeChunkingByLines) {
  std::string code;
  for (int i = 0; i < 30; ++i) code += "line" + std::to_string(i) + "\n";
  const auto chunks = chunk_code(code, /*max_lines=*/10, /*overlap_lines=*/2);
  EXPECT_GE(chunks.size(), 3u);
  EXPECT_NE(chunks[0].find("line0"), std::string::npos);
  EXPECT_NE(chunks.back().find("line29"), std::string::npos);
}

TEST(Chunker, InvalidOptionsThrow) {
  ChunkOptions bad;
  bad.max_words = 0;
  EXPECT_THROW(chunk_document("x", bad), InvalidArgument);
  bad.max_words = 10;
  bad.overlap_words = 10;
  EXPECT_THROW(chunk_document("x", bad), InvalidArgument);
  EXPECT_THROW(chunk_code("x", 0), InvalidArgument);
}

}  // namespace
}  // namespace hpcgpt::text
