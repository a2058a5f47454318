/**
 * @file
 * Parity helpers shared by the kernel suites (test_simd, test_quant):
 * run one computation under the scalar oracle and under every vector
 * kernel copy the binary compiled and the host runs, and compare the
 * results byte for byte.
 */
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/simd.hpp"
#include "tensor/tensor.hpp"

namespace mesorasi::parity {

/** Forces the scalar oracle for a scope; clears the flag even if an
 *  assertion throws. */
struct ScalarGuard
{
    ScalarGuard() { simd::setForceScalar(true); }
    ~ScalarGuard() { simd::setForceScalar(false); }
};

/** The copies a parity sweep compares against the oracle: every ISA
 *  runnableIsas() lists but Scalar. Empty in a -DMESORASI_FORCE_SCALAR
 *  build, where the suites degenerate to self-consistency. */
inline std::vector<simd::Isa>
vectorIsas()
{
    std::vector<simd::Isa> out;
    for (simd::Isa isa : simd::runnableIsas())
        if (isa != simd::Isa::Scalar)
            out.push_back(isa);
    return out;
}

inline bool
sameBytes(const tensor::Tensor &a, const tensor::Tensor &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), static_cast<size_t>(a.bytes())) ==
               0;
}

template <class T>
bool
sameBytes(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/**
 * Runs @p run forced scalar (the oracle), then once on every vector
 * copy (vectorIsas) over the same inputs, and expects each result
 * byte-identical to the oracle's. Returns the oracle's result.
 */
template <class Run>
auto
expectParityAtEveryIsa(Run run, const std::string &what)
{
    auto oracle = [&] {
        ScalarGuard g;
        return run();
    }();
    for (simd::Isa isa : vectorIsas()) {
        simd::ScopedIsa g(isa);
        EXPECT_TRUE(sameBytes(oracle, run()))
            << what << " on " << simd::isaName(isa);
    }
    return oracle;
}

} // namespace mesorasi::parity
