/**
 * @file
 * The three real-world workloads of the paper's evaluation
 * (Section 7): bitmap index (BMI), image segmentation (IMS), and
 * k-clique star listing (KCS).
 *
 * For the system-level (timing/energy) evaluation a workload is a list
 * of operation batches; each batch combines `andOperands` bit vectors
 * with AND and then ORs in `orOperands` more (the KCS star-formation
 * step). Operand payloads are not materialized at this level — the
 * functional path is exercised by the examples and integration tests
 * (see README.md, "The page store and the Table-1 scale tier").
 */

#ifndef FCOS_WORKLOADS_WORKLOAD_H
#define FCOS_WORKLOADS_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

namespace fcos::wl {

struct OpBatch
{
    /** Vectors combined with bitwise AND. */
    std::uint64_t andOperands = 0;
    /** Vectors OR-ed with the AND result afterwards. */
    std::uint64_t orOperands = 0;
    /** Size of each operand (== result) bit vector in bytes. */
    std::uint64_t operandBytes = 0;
    /** Result leaves the SSD toward the host. */
    bool resultToHost = true;
    /** Host post-processes the result (bit-count for BMI). */
    bool hostPostProcess = false;

    std::uint64_t totalOperands() const
    {
        return andOperands + orOperands;
    }
};

struct Workload
{
    std::string name;      ///< "BMI", "IMS", "KCS"
    std::string paramName; ///< "m", "I", "k"
    std::uint64_t paramValue = 0;
    std::vector<OpBatch> batches;

    std::uint64_t totalOperandBytes() const;
    std::uint64_t totalResultBytes() const;
    /** Bits the computation logically touches (Figure 18's numerator). */
    double computedBits() const;
};

/**
 * Bitmap index (Section 7): "how many users were active every day for
 * the past @p months months?" — AND of one daily 1-bit-per-user vector
 * per day, then a host-side bit-count. 800M users => 100-MB vectors;
 * operands range from 30 (m=1) to 1095 (m=36).
 */
Workload makeBmi(std::uint32_t months, std::uint64_t users = 800000000ULL);

/**
 * Image segmentation: AND of the three YUV membership bit vectors over
 * @p images 800x600 images with 4 colors.
 */
Workload makeIms(std::uint64_t images);

/**
 * K-clique star listing: for each of @p cliques k-cliques over a
 * @p vertices-vertex graph, AND the k member adjacency vectors and OR
 * in the clique-membership vector.
 */
Workload makeKcs(std::uint32_t k, std::uint32_t cliques = 1024,
                 std::uint64_t vertices = 32000000ULL);

/**
 * Weak-scaling shape for the multi-die compute engine: one bulk AND
 * batch whose operand size grows with the farm so that every die holds
 * @p pages_per_column result pages regardless of die count. The
 * engine-scaling bench and its golden test run this shape across
 * channel x die configurations.
 *
 * @param and_operands     vectors folded with AND (<= one NAND string)
 * @param operand_bytes    size of each operand (== result) vector
 */
Workload makeEngineScaling(std::uint64_t and_operands,
                           std::uint64_t operand_bytes);

} // namespace fcos::wl

#endif // FCOS_WORKLOADS_WORKLOAD_H
