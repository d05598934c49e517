#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace hpcgpt::text {

/// Options controlling how long documents are split.
struct ChunkOptions {
  /// Maximum chunk length in words.
  std::size_t max_words = 120;
  /// Words of overlap carried from the end of one chunk into the next, so
  /// facts straddling a boundary stay retrievable.
  std::size_t overlap_words = 20;
  /// Prefer to break at line boundaries when one exists inside the window.
  bool respect_lines = true;
};

/// Splits `document` into overlapping chunks.
///
/// This implements the paper's §5 proposal for code snippets exceeding the
/// LLM context limit ("break down large code snippets into smaller,
/// manageable segments ... analyze each segment individually and then
/// combine the results") and the LangChain-style chunking feeding the
/// search engine in `hpcgpt::retrieval`.
std::vector<std::string> chunk_document(std::string_view document,
                                        const ChunkOptions& options = {});

/// Splits source code into chunks of at most `max_lines` lines with
/// `overlap_lines` lines of overlap; line-oriented variant for programs.
std::vector<std::string> chunk_code(std::string_view code,
                                    std::size_t max_lines,
                                    std::size_t overlap_lines = 2);

}  // namespace hpcgpt::text
