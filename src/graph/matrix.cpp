#include "graph/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/morsel.hpp"

namespace gdelt::graph {
namespace {

/// Row r of a * b into (cols, vals), ascending columns. `acc` is a
/// zeroed dense row of b.cols entries and is left zeroed; `touched` is
/// scratch.
void MultiplyRow(const SparseMatrix& a, const SparseMatrix& b, std::size_t r,
                 std::vector<double>& acc, std::vector<std::uint32_t>& touched,
                 std::vector<std::uint32_t>& cols, std::vector<double>& vals) {
  touched.clear();
  for (std::uint64_t ka = a.row_offsets[r]; ka < a.row_offsets[r + 1]; ++ka) {
    const std::uint32_t j = a.col_index[ka];
    const double av = a.values[ka];
    for (std::uint64_t kb = b.row_offsets[j]; kb < b.row_offsets[j + 1];
         ++kb) {
      const std::uint32_t c = b.col_index[kb];
      if (acc[c] == 0.0) touched.push_back(c);
      acc[c] += av * b.values[kb];
    }
  }
  std::sort(touched.begin(), touched.end());
  cols.reserve(touched.size());
  vals.reserve(touched.size());
  for (const std::uint32_t c : touched) {
    if (acc[c] != 0.0) {
      cols.push_back(c);
      vals.push_back(acc[c]);
    }
    acc[c] = 0.0;
  }
}

}  // namespace

SparseMatrix DenseToSparse(const DenseMatrix& dense, double threshold) {
  SparseMatrix out;
  out.rows = dense.rows();
  out.cols = dense.cols();
  out.row_offsets.assign(out.rows + 1, 0);
  for (std::size_t r = 0; r < out.rows; ++r) {
    std::uint64_t nnz = 0;
    for (const double v : dense.Row(r)) {
      if (std::abs(v) > threshold) ++nnz;
    }
    out.row_offsets[r + 1] = out.row_offsets[r] + nnz;
  }
  out.col_index.resize(out.row_offsets.back());
  out.values.resize(out.row_offsets.back());
  parallel::PoolParallelFor(out.rows, [&](IndexRange rows, std::size_t) {
    for (std::size_t r = rows.begin; r < rows.end; ++r) {
      std::uint64_t at = out.row_offsets[r];
      const auto row = dense.Row(r);
      for (std::size_t c = 0; c < row.size(); ++c) {
        if (std::abs(row[c]) > threshold) {
          out.col_index[at] = static_cast<std::uint32_t>(c);
          out.values[at] = row[c];
          ++at;
        }
      }
    }
  });
  return out;
}

DenseMatrix SparseToDense(const SparseMatrix& sparse) {
  DenseMatrix out(sparse.rows, sparse.cols);
  parallel::PoolParallelFor(sparse.rows, [&](IndexRange rows, std::size_t) {
    for (std::size_t r = rows.begin; r < rows.end; ++r) {
      for (std::uint64_t k = sparse.row_offsets[r];
           k < sparse.row_offsets[r + 1]; ++k) {
        out.At(r, sparse.col_index[k]) = sparse.values[k];
      }
    }
  });
  return out;
}

SparseMatrix Multiply(const SparseMatrix& a, const SparseMatrix& b) {
  SparseMatrix out;
  out.rows = a.rows;
  out.cols = b.cols;
  out.row_offsets.assign(out.rows + 1, 0);

  // Two-phase Gustavson: count nnz per row, then fill. Parallel over rows,
  // 64 per morsel (row costs are skewed), with a per-slot dense
  // accumulator that every row leaves zeroed again.
  std::vector<std::vector<std::uint32_t>> row_cols(out.rows);
  std::vector<std::vector<double>> row_vals(out.rows);
  std::vector<std::vector<double>> accs(parallel::PoolSlots());
  std::vector<std::vector<std::uint32_t>> touches(accs.size());
  parallel::PoolParallelFor(
      a.rows,
      [&](IndexRange range, std::size_t slot) {
        auto& acc = accs[slot];
        auto& touched = touches[slot];
        if (acc.size() != b.cols) acc.assign(b.cols, 0.0);
        for (std::size_t r = range.begin; r < range.end; ++r) {
          MultiplyRow(a, b, r, acc, touched, row_cols[r], row_vals[r]);
        }
      },
      /*morsel_rows=*/64);
  for (std::size_t r = 0; r < out.rows; ++r) {
    out.row_offsets[r + 1] = out.row_offsets[r] + row_cols[r].size();
  }
  out.col_index.resize(out.row_offsets.back());
  out.values.resize(out.row_offsets.back());
  parallel::PoolParallelFor(out.rows, [&](IndexRange rows, std::size_t) {
    for (std::size_t r = rows.begin; r < rows.end; ++r) {
      const auto at = static_cast<std::ptrdiff_t>(out.row_offsets[r]);
      std::copy(row_cols[r].begin(), row_cols[r].end(),
                out.col_index.begin() + at);
      std::copy(row_vals[r].begin(), row_vals[r].end(),
                out.values.begin() + at);
    }
  });
  return out;
}

void NormalizeRows(SparseMatrix& m) {
  // Zero rows get a self-loop appended; collect them first since appending
  // reshapes the CSR arrays.
  std::vector<std::size_t> zero_rows;
  for (std::size_t r = 0; r < m.rows; ++r) {
    double sum = 0.0;
    for (std::uint64_t k = m.row_offsets[r]; k < m.row_offsets[r + 1]; ++k) {
      sum += m.values[k];
    }
    if (sum <= 0.0) {
      zero_rows.push_back(r);
    } else {
      for (std::uint64_t k = m.row_offsets[r]; k < m.row_offsets[r + 1];
           ++k) {
        m.values[k] /= sum;
      }
    }
  }
  if (zero_rows.empty()) return;
  SparseMatrix rebuilt;
  rebuilt.rows = m.rows;
  rebuilt.cols = m.cols;
  rebuilt.row_offsets.assign(m.rows + 1, 0);
  std::size_t zi = 0;
  for (std::size_t r = 0; r < m.rows; ++r) {
    const bool is_zero = zi < zero_rows.size() && zero_rows[zi] == r;
    const std::uint64_t nnz =
        is_zero ? 1 : m.row_offsets[r + 1] - m.row_offsets[r];
    rebuilt.row_offsets[r + 1] = rebuilt.row_offsets[r] + nnz;
    if (is_zero) ++zi;
  }
  rebuilt.col_index.resize(rebuilt.row_offsets.back());
  rebuilt.values.resize(rebuilt.row_offsets.back());
  zi = 0;
  for (std::size_t r = 0; r < m.rows; ++r) {
    std::uint64_t at = rebuilt.row_offsets[r];
    if (zi < zero_rows.size() && zero_rows[zi] == r) {
      rebuilt.col_index[at] = static_cast<std::uint32_t>(r);
      rebuilt.values[at] = 1.0;
      ++zi;
      continue;
    }
    for (std::uint64_t k = m.row_offsets[r]; k < m.row_offsets[r + 1];
         ++k, ++at) {
      rebuilt.col_index[at] = m.col_index[k];
      rebuilt.values[at] = m.values[k];
    }
  }
  m = std::move(rebuilt);
}

double FrobeniusDistance(const SparseMatrix& a, const SparseMatrix& b) {
  // Walk both row streams simultaneously (columns are sorted within rows).
  double sum = 0.0;
  for (std::size_t r = 0; r < a.rows; ++r) {
    std::uint64_t ka = a.row_offsets[r];
    std::uint64_t kb = b.row_offsets[r];
    const std::uint64_t ea = a.row_offsets[r + 1];
    const std::uint64_t eb = b.row_offsets[r + 1];
    while (ka < ea || kb < eb) {
      std::uint32_t ca = ka < ea ? a.col_index[ka] : UINT32_MAX;
      std::uint32_t cb = kb < eb ? b.col_index[kb] : UINT32_MAX;
      double d = 0.0;
      if (ca == cb) {
        d = a.values[ka] - b.values[kb];
        ++ka;
        ++kb;
      } else if (ca < cb) {
        d = a.values[ka];
        ++ka;
      } else {
        d = -b.values[kb];
        ++kb;
      }
      sum += d * d;
    }
  }
  return std::sqrt(sum);
}

}  // namespace gdelt::graph
