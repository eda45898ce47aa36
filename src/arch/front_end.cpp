#include "arch/front_end.hpp"

#include "util/trace.hpp"

namespace otft::arch {

using workload::OpClass;

FrontEndStream::FrontEndStream(workload::BenchmarkProfile profile,
                               std::uint64_t seed, int predictor_bits)
    : ownedTrace(std::make_unique<workload::TraceGenerator>(
          std::move(profile), seed)),
      trace(*ownedTrace), predictor(predictor_bits),
      predictorBits_(predictor_bits)
{
}

FrontEndStream::FrontEndStream(workload::TraceGenerator &trace,
                               int predictor_bits)
    : trace(trace), predictor(predictor_bits),
      predictorBits_(predictor_bits)
{
}

std::uint32_t
FrontEndStream::pack(const workload::TraceInst &inst, bool mispredicted)
{
    // Registers are noReg (-1) .. numArchRegs - 1, stored biased by one
    // in six bits each.
    static_assert(workload::numArchRegs + 1 <= 64);
    const auto reg = [](int r) {
        return static_cast<std::uint32_t>(r + 1);
    };
    return static_cast<std::uint32_t>(inst.op) | reg(inst.src1) << 3 |
           reg(inst.src2) << 9 | reg(inst.dest) << 15 |
           static_cast<std::uint32_t>(inst.taken) << 21 |
           static_cast<std::uint32_t>(mispredicted) << 22;
}

const FrontEndStream::Chunk &
FrontEndStream::chunk(std::size_t index)
{
    std::lock_guard<std::mutex> lock(mutex);
    while (chunks.size() <= index)
        chunks.push_back(buildChunk());
    return *chunks[index];
}

std::unique_ptr<const FrontEndStream::Chunk>
FrontEndStream::buildChunk()
{
    OTFT_TRACE_SCOPE("workload.stream.chunk");
    auto chunk = std::make_unique<Chunk>();
    chunk->insts.reserve(chunkInsts);
    for (std::size_t i = 0; i < chunkInsts; ++i) {
        const workload::TraceInst inst = trace.next();
        bool mispredicted = false;
        if (inst.op == OpClass::Branch) {
            // Predict and train in program order, exactly as fetch
            // would.
            mispredicted = predictor.predict(inst.pc) != inst.taken;
            predictor.update(inst.pc, inst.taken);
        } else if (workload::isMemory(inst.op)) {
            chunk->addresses.push_back(inst.address);
        }
        chunk->insts.push_back(pack(inst, mispredicted));
    }
    chunk->addresses.shrink_to_fit();
    trace.publishGenerated();
    return chunk;
}

FrontEndCursor::FrontEndCursor(FrontEndStream &stream)
    : stream(stream), chunk(&stream.chunk(0))
{
    decode();
}

void
FrontEndCursor::nextChunk()
{
    chunk = &stream.chunk(++chunkIndex);
    index = 0;
    memIndex = 0;
}

} // namespace otft::arch
