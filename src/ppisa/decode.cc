#include "ppisa/decode.hh"

#include "ppisa/ppsim.hh"
#include "ppisa/threaded.hh"

namespace flashsim::ppisa
{

namespace
{

/** Lower one issue slot, precomputing everything execSlot re-derived. */
MicroOp
lowerSlot(const Instr &in)
{
    MicroOp m;
    m.op = in.op;
    m.rd = in.rd;
    m.rs = in.rs;
    m.rt = in.rt;
    m.lo = in.lo;
    m.imm = in.imm;
    if (in.isBranch())
        m.target = static_cast<std::uint32_t>(in.imm);
    switch (in.op) {
      case Op::Ext:
        m.mask = fieldMask(0, in.width);
        break;
      case Op::Ins:
      case Op::Orfi:
      case Op::Andfi:
        m.mask = fieldMask(in.lo, in.width);
        break;
      default:
        break;
    }
    const std::vector<int> srcs = in.srcRegs();
    m.nsrcs = static_cast<std::uint8_t>(srcs.size());
    for (std::size_t i = 0; i < srcs.size(); ++i)
        m.srcs[i] = static_cast<std::uint8_t>(srcs[i]);
    return m;
}

std::uint32_t
srcMaskOf(const Instr &in)
{
    std::uint32_t mask = 0;
    for (int src : in.srcRegs())
        if (src != 0)
            mask |= std::uint32_t{1} << src;
    return mask;
}

} // namespace

DecodedProgram::DecodedProgram(const Program &prog)
    : name_(prog.name), src_(prog.pairs().data()),
      srcCount_(prog.pairs().size()), srcVersion_(prog.decodeVersion())
{
    const std::vector<InstrPair> &pairs = prog.pairs();
    pairs_.reserve(pairs.size());
    for (const InstrPair &pair : pairs) {
        DecodedPair d;
        d.a = lowerSlot(pair.a);
        d.b = lowerSlot(pair.b);
        d.srcMask = srcMaskOf(pair.a) | srcMaskOf(pair.b);
        for (const Instr *in : {&pair.a, &pair.b}) {
            const int dest = in->isLoad() ? in->destReg() : -1;
            if (dest > 0)
                d.loadMask |= std::uint32_t{1} << dest;
            if (!in->isNop()) {
                ++d.instrsInc;
                if (in->isSpecial())
                    ++d.specialsInc;
                if (in->isAluOrBranch())
                    ++d.aluBranchInc;
            }
        }
        d.halts = pair.a.op == Op::Halt || pair.b.op == Op::Halt;

        // Resolve the static-scheduling contract, in the reference's
        // check order so a multiply-broken pair reports the same
        // violation first.
        const int dest_a = pair.a.destReg();
        if (dest_a > 0) {
            for (int src : pair.b.srcRegs()) {
                if (src == dest_a &&
                    d.violation == DecodedPair::Violation::None) {
                    d.violation = DecodedPair::Violation::IntraRaw;
                    d.violationReg = static_cast<std::uint8_t>(dest_a);
                }
            }
            if (pair.b.destReg() == dest_a &&
                d.violation == DecodedPair::Violation::None) {
                d.violation = DecodedPair::Violation::IntraWaw;
                d.violationReg = static_cast<std::uint8_t>(dest_a);
            }
        }
        if (pair.a.isBranch() && pair.b.isBranch() &&
            d.violation == DecodedPair::Violation::None)
            d.violation = DecodedPair::Violation::TwoBranch;

        pairs_.push_back(d);
    }

    // Build the threaded-code image here rather than lazily at first
    // threaded run: pre-decoded program sets (protocol/pp_programs.cc)
    // are published across sweep worker threads, so everything hanging
    // off a DecodedProgram must be complete before publication.
    threaded_ = std::make_unique<const ThreadedProgram>(name_, pairs_);
}

DecodedProgram::~DecodedProgram() = default;

const DecodedProgram &
Program::decoded() const
{
    if (!decoded_ || !decoded_->matches(*this))
        decoded_ = std::make_shared<const DecodedProgram>(*this);
    return *decoded_;
}

} // namespace flashsim::ppisa
