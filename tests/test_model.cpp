/**
 * @file
 * Unit tests for the model layer: tensors, MLP, embedding tables, the
 * DLRM reference, and the Table III model zoo.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ostream>

#include "model/dlrm.h"
#include "model/embedding.h"
#include "model/mlp.h"
#include "model/model_zoo.h"
#include "model/tensor.h"

namespace rmssd::model {
namespace {

TEST(Tensor, MultiplyMatchesManual)
{
    Matrix m(2, 3);
    m.at(0, 0) = 1;
    m.at(0, 1) = 2;
    m.at(0, 2) = 3;
    m.at(1, 0) = 4;
    m.at(1, 1) = 5;
    m.at(1, 2) = 6;
    const Vector y = m.multiply({1.0f, 1.0f, 1.0f});
    EXPECT_FLOAT_EQ(y[0], 6.0f);
    EXPECT_FLOAT_EQ(y[1], 15.0f);
}

TEST(Tensor, RandomMatrixIsDeterministic)
{
    const Matrix a = Matrix::random(4, 4, 99);
    const Matrix b = Matrix::random(4, 4, 99);
    EXPECT_EQ(a.data(), b.data());
    const Matrix c = Matrix::random(4, 4, 100);
    EXPECT_NE(a.data(), c.data());
}

TEST(Tensor, ConcatAndAccumulate)
{
    Vector a{1, 2};
    const Vector b{3, 4};
    EXPECT_EQ(concat(a, b), (Vector{1, 2, 3, 4}));
    accumulate(a, b);
    EXPECT_EQ(a, (Vector{4, 6}));
}

TEST(Mlp, ReluClampsHiddenLayers)
{
    Mlp mlp(4, {8, 2}, Activation::None, 7);
    const Vector out = mlp.layers().front().forward({1, -1, 0.5f, 0});
    for (const float v : out)
        EXPECT_GE(v, 0.0f);
}

TEST(Mlp, SigmoidOutputInUnitInterval)
{
    Mlp mlp(4, {8, 1}, Activation::Sigmoid, 7);
    const Vector out = mlp.forward({10, -10, 3, 0.5f});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_GT(out[0], 0.0f);
    EXPECT_LT(out[0], 1.0f);
}

TEST(Mlp, ParamBytesMatchShapes)
{
    Mlp mlp(4, {8, 2}, Activation::None, 7);
    // (4*8 + 8) + (8*2 + 2) floats.
    EXPECT_EQ(mlp.paramBytes(), (40u + 18u) * sizeof(float));
}

TEST(Embedding, ValuesAreDeterministicAndBounded)
{
    EmbeddingTableSpec spec{3, 100, 16, 42};
    for (int i = 0; i < 50; ++i) {
        const float v = spec.value(i % 100, i % 16);
        EXPECT_EQ(v, spec.value(i % 100, i % 16));
        EXPECT_GE(v, -1.0f);
        EXPECT_LT(v, 1.0f);
    }
}

TEST(Embedding, RowBytesRoundTripsThroughFloats)
{
    EmbeddingTableSpec spec{1, 10, 8, 5};
    std::vector<std::uint8_t> raw(spec.vectorBytes());
    spec.rowBytes(3, raw);
    const Vector row = spec.row(3);
    for (std::uint32_t d = 0; d < 8; ++d) {
        float v;
        std::memcpy(&v, raw.data() + d * sizeof(float), sizeof(float));
        EXPECT_EQ(v, row[d]);
    }
}

TEST(Embedding, SlsReferenceSumsRows)
{
    EmbeddingTableSpec spec{0, 10, 4, 1};
    const std::vector<std::uint64_t> idx{2, 2, 5};
    const Vector pooled = spec.slsReference(idx);
    for (std::uint32_t d = 0; d < 4; ++d) {
        EXPECT_FLOAT_EQ(pooled[d],
                        2 * spec.value(2, d) + spec.value(5, d));
    }
}

TEST(Dlrm, TopInputIsInteractionConcat)
{
    const ModelConfig c = rmc1();
    // 8 tables x dim 32 + bottom output 32 = 288.
    EXPECT_EQ(c.topInputDim(), 288u);
    EXPECT_EQ(c.denseInputDim(), 128u);
    EXPECT_EQ(c.bottomOutputDim(), 32u);
}

TEST(Dlrm, BottomWidthsIncludeInput)
{
    const ModelConfig c = rmc1();
    const auto shapes = c.bottomShapes();
    ASSERT_EQ(shapes.size(), 2u); // Table V has Lb0, Lb1 only
    EXPECT_EQ(shapes[0], (LayerShape{128, 64}));
    EXPECT_EQ(shapes[1], (LayerShape{64, 32}));
}

struct MlpSizeCase
{
    const char *name;
    double paperMb;
};

// Print the case by model name, not as raw bytes: the bytes hold the
// name's pointer, which changes from run to run and would otherwise
// leak into the discovered test names.
void PrintTo(const MlpSizeCase &c, std::ostream *os)
{
    *os << c.name;
}

class MlpSizeTest : public ::testing::TestWithParam<MlpSizeCase>
{
};

TEST_P(MlpSizeTest, MatchesTableIII)
{
    const auto param = GetParam();
    const ModelConfig c = modelByName(param.name);
    const double mb =
        static_cast<double>(c.mlpParamBytes()) / (1024.0 * 1024.0);
    // Within 10% of the paper's reported MLP size.
    EXPECT_NEAR(mb, param.paperMb, param.paperMb * 0.10)
        << param.name;
}

INSTANTIATE_TEST_SUITE_P(TableIII, MlpSizeTest,
                         ::testing::Values(MlpSizeCase{"RMC1", 0.39},
                                           MlpSizeCase{"RMC2", 1.23},
                                           MlpSizeCase{"RMC3", 12.23}));

TEST(ModelZoo, TableIIIParameters)
{
    const ModelConfig c1 = rmc1();
    EXPECT_EQ(c1.embDim, 32u);
    EXPECT_EQ(c1.numTables, 8u);
    EXPECT_EQ(c1.lookupsPerTable, 80u);

    const ModelConfig c2 = rmc2();
    EXPECT_EQ(c2.embDim, 64u);
    EXPECT_EQ(c2.numTables, 32u);
    EXPECT_EQ(c2.lookupsPerTable, 120u);

    const ModelConfig c3 = rmc3();
    EXPECT_EQ(c3.embDim, 32u);
    EXPECT_EQ(c3.numTables, 10u);
    EXPECT_EQ(c3.lookupsPerTable, 20u);

    // MLP-dominated extremes do one lookup per table (Section VI-C).
    EXPECT_EQ(ncf().lookupsPerTable, 1u);
    EXPECT_EQ(wnd().lookupsPerTable, 1u);
}

TEST(ModelZoo, ThirtyGbEmbeddings)
{
    for (const ModelConfig &c : allModels()) {
        EXPECT_NEAR(static_cast<double>(c.embeddingBytes()), 30e9,
                    30e9 * 0.01)
            << c.name;
    }
}

TEST(ModelZoo, UnknownNameIsFatal)
{
    EXPECT_EXIT(modelByName("RMC9"), ::testing::ExitedWithCode(1),
                "unknown model");
}

TEST(Dlrm, ReferenceInferenceIsDeterministicCtr)
{
    ModelConfig cfg = rmc1().withRowsPerTable(512);
    const DlrmModel model(cfg);
    const Sample s = model.makeSample(7);
    const float a = model.referenceInference(s);
    const float b = model.referenceInference(s);
    EXPECT_EQ(a, b);
    EXPECT_GT(a, 0.0f);
    EXPECT_LT(a, 1.0f);
}

TEST(Dlrm, PooledPathEqualsFullInference)
{
    ModelConfig cfg = rmc1().withRowsPerTable(256);
    const DlrmModel model(cfg);
    const Sample s = model.makeSample(11);
    const Vector pooled = model.embedding().pooledReference(s.indices);
    EXPECT_EQ(model.referenceInference(s),
              model.inferenceWithPooled(s.dense, pooled));
}

TEST(Dlrm, WithTotalEmbeddingGbSetsRows)
{
    ModelConfig cfg = rmc1();
    cfg.withTotalEmbeddingGB(30.0);
    // 30 GB / (8 tables * 128 B).
    EXPECT_NEAR(static_cast<double>(cfg.rowsPerTable),
                30e9 / (8.0 * 128.0), 1.0);
}

} // namespace
} // namespace rmssd::model
