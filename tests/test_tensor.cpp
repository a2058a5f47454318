/**
 * @file
 * Tests for the tensor container and its operations.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "tensor/panel_matrix.hpp"
#include "tensor/tensor.hpp"

namespace mesorasi::tensor {
namespace {

using mesorasi::Rng;

TEST(Tensor, ZeroInitialized)
{
    Tensor t(3, 4);
    EXPECT_EQ(t.rows(), 3);
    EXPECT_EQ(t.cols(), 4);
    EXPECT_EQ(t.numel(), 12);
    EXPECT_EQ(t.bytes(), 48);
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 4; ++c)
            EXPECT_FLOAT_EQ(t.at(r, c), 0.0f);
}

TEST(Tensor, ConstructFromData)
{
    Tensor t(2, 2, {1, 2, 3, 4});
    EXPECT_FLOAT_EQ(t(1, 0), 3.0f);
    EXPECT_THROW(Tensor(2, 2, {1, 2, 3}), mesorasi::UsageError);
}

TEST(Tensor, BoundsChecking)
{
    Tensor t(2, 2);
    EXPECT_THROW(t.at(2, 0), mesorasi::InternalError);
    EXPECT_THROW(t.at(0, -1), mesorasi::InternalError);
}

TEST(Tensor, FillAndMaxAbsDiff)
{
    Tensor a(2, 3), b(2, 3);
    a.fill(1.0f);
    b.fill(1.5f);
    EXPECT_FLOAT_EQ(a.maxAbsDiff(b), 0.5f);
    EXPECT_TRUE(a.approxEqual(b, 0.6f));
    EXPECT_FALSE(a.approxEqual(b, 0.4f));
}

TEST(Tensor, ShapeMismatchDetected)
{
    Tensor a(2, 3), b(3, 2);
    EXPECT_THROW(a.maxAbsDiff(b), mesorasi::UsageError);
    EXPECT_FALSE(a.approxEqual(b));
}

TEST(Tensor, FrobeniusNorm)
{
    Tensor t(1, 2, {3, 4});
    EXPECT_FLOAT_EQ(t.frobeniusNorm(), 5.0f);
}

TEST(Ops, MatmulHandComputed)
{
    Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
    Tensor b(3, 2, {7, 8, 9, 10, 11, 12});
    Tensor c = matmul(a, b);
    EXPECT_FLOAT_EQ(c(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c(1, 1), 154.0f);
}

TEST(Ops, MatmulIdentity)
{
    Rng rng(1);
    Tensor a = uniform(rng, 4, 4, -1, 1);
    Tensor c = matmul(a, identity(4));
    EXPECT_TRUE(c.approxEqual(a, 1e-6f));
}

TEST(Ops, MatmulShapeMismatch)
{
    Tensor a(2, 3), b(2, 3);
    EXPECT_THROW(matmul(a, b), mesorasi::UsageError);
}

TEST(Ops, MatmulAssociativity)
{
    Rng rng(2);
    Tensor a = uniform(rng, 3, 4, -1, 1);
    Tensor b = uniform(rng, 4, 5, -1, 1);
    Tensor c = uniform(rng, 5, 2, -1, 1);
    Tensor left = matmul(matmul(a, b), c);
    Tensor right = matmul(a, matmul(b, c));
    EXPECT_TRUE(left.approxEqual(right, 1e-4f));
}

TEST(Ops, BiasBroadcasts)
{
    Tensor x(2, 2, {1, 2, 3, 4});
    Tensor b(1, 2, {10, 20});
    addBiasInPlace(x, b);
    EXPECT_FLOAT_EQ(x(0, 0), 11.0f);
    EXPECT_FLOAT_EQ(x(1, 1), 24.0f);
}

TEST(Ops, ReluClampsNegatives)
{
    Tensor x(1, 4, {-1, 0, 2, -3});
    Tensor y = relu(x);
    EXPECT_FLOAT_EQ(y(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(y(0, 2), 2.0f);
    EXPECT_FLOAT_EQ(y(0, 3), 0.0f);
    // Original untouched by the copying variant.
    EXPECT_FLOAT_EQ(x(0, 0), -1.0f);
}

TEST(Ops, BatchNormAffine)
{
    Tensor x(2, 2, {1, 2, 3, 4});
    Tensor gamma(1, 2, {2, 2});
    Tensor beta(1, 2, {1, 1});
    Tensor mean(1, 2, {2, 3});
    Tensor var(1, 2, {1, 1});
    batchNormInPlace(x, gamma, beta, mean, var, 0.0f);
    EXPECT_NEAR(x(0, 0), 2.0f * (1 - 2) + 1, 1e-4f);
    EXPECT_NEAR(x(1, 1), 2.0f * (4 - 3) + 1, 1e-4f);
}

TEST(Ops, MaxReduceAllRows)
{
    Tensor x(3, 2, {1, 9, 5, 2, 3, 4});
    Tensor m = maxReduceRows(x);
    EXPECT_FLOAT_EQ(m(0, 0), 5.0f);
    EXPECT_FLOAT_EQ(m(0, 1), 9.0f);
}

TEST(Ops, MaxReduceSubset)
{
    Tensor x(3, 2, {1, 9, 5, 2, 3, 4});
    Tensor m = maxReduceRows(x, {0, 2});
    EXPECT_FLOAT_EQ(m(0, 0), 3.0f);
    EXPECT_FLOAT_EQ(m(0, 1), 9.0f);
    EXPECT_THROW(maxReduceRows(x, {}), mesorasi::UsageError);
}

TEST(Ops, ArgmaxReduce)
{
    Tensor x(3, 2, {1, 9, 5, 2, 3, 4});
    auto idx = argmaxReduceRows(x);
    EXPECT_EQ(idx[0], 1);
    EXPECT_EQ(idx[1], 0);
}

TEST(Ops, GatherRows)
{
    Tensor x(3, 2, {1, 2, 3, 4, 5, 6});
    Tensor g = gatherRows(x, {2, 0, 2});
    EXPECT_EQ(g.rows(), 3);
    EXPECT_FLOAT_EQ(g(0, 0), 5.0f);
    EXPECT_FLOAT_EQ(g(1, 1), 2.0f);
    EXPECT_FLOAT_EQ(g(2, 0), 5.0f);
    EXPECT_THROW(gatherRows(x, {3}), mesorasi::UsageError);
}

TEST(Ops, SubtractRow)
{
    Tensor x(2, 2, {1, 2, 3, 4});
    Tensor s(1, 2, {1, 1});
    Tensor y = subtractRow(x, s);
    EXPECT_FLOAT_EQ(y(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(y(1, 1), 3.0f);
}

TEST(Ops, SubtractDistributesOverMax)
{
    // The max-before-subtract identity underlying the delayed pipeline:
    // max_j(p_j - c) == max_j(p_j) - c (per column).
    Rng rng(3);
    Tensor p = uniform(rng, 16, 8, -2, 2);
    Tensor c = uniform(rng, 1, 8, -2, 2);
    Tensor sub_then_max = maxReduceRows(subtractRow(p, c));
    Tensor max_then_sub = subtractRow(maxReduceRows(p), c);
    EXPECT_TRUE(sub_then_max.approxEqual(max_then_sub, 1e-6f));
}

TEST(Ops, ReluCommutesWithMax)
{
    // ReLU is monotone, so max_j relu(x_j) == relu(max_j x_j) -- the
    // identity that makes single-layer delayed EdgeConv exact.
    Rng rng(4);
    Tensor x = uniform(rng, 12, 6, -3, 3);
    Tensor a = maxReduceRows(relu(x));
    Tensor b = relu(maxReduceRows(x));
    EXPECT_TRUE(a.approxEqual(b, 1e-6f));
}

TEST(Ops, ConcatCols)
{
    Tensor a(2, 1, {1, 2});
    Tensor b(2, 2, {3, 4, 5, 6});
    Tensor c = concatCols(a, b);
    EXPECT_EQ(c.cols(), 3);
    EXPECT_FLOAT_EQ(c(1, 2), 6.0f);
    EXPECT_THROW(concatCols(a, Tensor(3, 1)), mesorasi::UsageError);
}

TEST(Ops, ConcatRows)
{
    Tensor a(1, 2, {1, 2});
    Tensor b(2, 2, {3, 4, 5, 6});
    Tensor c = concatRows(a, b);
    EXPECT_EQ(c.rows(), 3);
    EXPECT_FLOAT_EQ(c(2, 1), 6.0f);
    EXPECT_THROW(concatRows(a, Tensor(1, 3)), mesorasi::UsageError);
}

TEST(Ops, SoftmaxRowsSumToOne)
{
    Rng rng(5);
    Tensor x = uniform(rng, 4, 7, -5, 5);
    Tensor y = softmaxRows(x);
    for (int r = 0; r < 4; ++r) {
        float sum = 0;
        for (int c = 0; c < 7; ++c) {
            EXPECT_GT(y(r, c), 0.0f);
            sum += y(r, c);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

TEST(Ops, TransposeRoundTrip)
{
    Rng rng(6);
    Tensor x = uniform(rng, 3, 5, -1, 1);
    EXPECT_TRUE(transpose(transpose(x)).approxEqual(x));
}

TEST(Init, XavierWithinBound)
{
    Rng rng(7);
    Tensor w = xavierUniform(rng, 64, 32);
    float bound = std::sqrt(6.0f / (64 + 32));
    for (int r = 0; r < w.rows(); ++r)
        for (int c = 0; c < w.cols(); ++c)
            EXPECT_LE(std::abs(w(r, c)), bound);
}

TEST(Init, KaimingVariance)
{
    Rng rng(8);
    Tensor w = kaimingNormal(rng, 256, 256);
    double sq = 0;
    for (int r = 0; r < w.rows(); ++r)
        for (int c = 0; c < w.cols(); ++c)
            sq += w(r, c) * w(r, c);
    double var = sq / w.numel();
    EXPECT_NEAR(var, 2.0 / 256, 0.002);
}

TEST(Init, IdentityDiagonal)
{
    Tensor i = identity(3);
    EXPECT_FLOAT_EQ(i(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(i(0, 1), 0.0f);
}

TEST(Init, ConstantFills)
{
    Tensor c = constant(2, 2, 3.5f);
    EXPECT_FLOAT_EQ(c(1, 1), 3.5f);
}

bool
sameBytes(const Tensor &a, const Tensor &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.bytes())) == 0;
}

TEST(PanelMatrix, PacksAndUnpacksExactly)
{
    // Column counts around the panel width: a narrow last panel, exact
    // panels, and one column past them.
    for (int32_t cols : {1, kPanelWidth - 1, kPanelWidth, 2 * kPanelWidth + 1}) {
        Rng rng(static_cast<uint64_t>(cols));
        Tensor t = uniform(rng, 5, cols, -1, 1);
        t(2, cols - 1) = -0.0f;
        PanelMatrix p(t);
        EXPECT_EQ(p.rows(), 5);
        EXPECT_EQ(p.cols(), cols);
        EXPECT_EQ(p.numel(), t.numel());
        EXPECT_TRUE(sameBytes(p.toTensor(), t)) << cols;
        MatrixView v = p.view();
        EXPECT_EQ(v.kStride, kPanelWidth);
        for (int32_t k = 0; k < t.rows(); ++k)
            for (int32_t j = 0; j < cols; ++j) {
                EXPECT_EQ(std::memcmp(&t(k, j), &v.data[(j / kPanelWidth) *
                                                            v.panelStride +
                                                        k * kPanelWidth +
                                                        j % kPanelWidth],
                                      sizeof(float)),
                          0);
                EXPECT_EQ(p.at(k, j), t(k, j));
            }
    }
}

TEST(PanelMatrix, DrawsLandInTheirSlots)
{
    // The panel initializers make the row-major draws, in order.
    Rng a(9), b(9);
    EXPECT_TRUE(sameBytes(kaimingNormalPanels(a, 37, 45).toTensor(),
                          kaimingNormal(b, 37, 45)));
    EXPECT_TRUE(sameBytes(xavierUniformPanels(a, 19, 3).toTensor(),
                          xavierUniform(b, 19, 3)));
}

TEST(PanelMatrix, RecordsFinitenessWhenPacked)
{
    Tensor t = constant(3, 20, 1.0f);
    EXPECT_TRUE(PanelMatrix(t).finite());
    EXPECT_TRUE(PanelMatrix(t).view().finite);
    for (float bad : {std::numeric_limits<float>::infinity(),
                      -std::numeric_limits<float>::infinity(),
                      std::numeric_limits<float>::quiet_NaN()}) {
        t(2, 19) = bad;
        EXPECT_FALSE(PanelMatrix(t).finite());
        EXPECT_FALSE(PanelMatrix(t).view().finite);
    }
    EXPECT_TRUE(allFinite(t.data(), t.numel() - 1));
    EXPECT_FALSE(allFinite(t.data(), t.numel()));
}

} // namespace
} // namespace mesorasi::tensor
