/**
 * @file
 * PP handler programs: the protocol handlers written in the PP IR.
 *
 * Each program mirrors the control flow of its authoritative C++
 * counterpart in handlers.cc, performing the same directory-word loads
 * and stores (through the MAGIC data cache) and launching the same
 * outgoing messages via Send. PpTimingModel executes these against a
 * shadow of the live directory to obtain cycle-accurate handler
 * occupancies; the conformance test in tests/ checks message-level
 * agreement with the C++ handlers across the protocol input space.
 *
 * Handler ABI (registers preloaded by the inbox before dispatch):
 *   r1  message type          r2  line address
 *   r3  source node           r4  message aux field
 *   r5  original requester    r6  this node's id
 *   r7  home node of address  r8  directory header word address
 *   r9  link pool base        r10 local-cache-holds-dirty flag
 *   r11 ack-table entry address for this line
 *   r12 raw message argument word (packSendArg of addr/aux/requester)
 */

#ifndef FLASHSIM_PROTOCOL_PP_PROGRAMS_HH_
#define FLASHSIM_PROTOCOL_PP_PROGRAMS_HH_

#include <cstddef>
#include <vector>

#include "ppc/compiler.hh"
#include "ppisa/ppsim.hh"
#include "protocol/directory.hh"
#include "protocol/message.hh"

namespace flashsim::protocol
{
// kAckTableBase / ackAddr moved to directory.hh (the DirectoryStore
// region decoder owns the protocol-data address map); re-exported here
// via the include for existing users.

/**
 * The full set of compiled handler programs. The jump table dispatches
 * on message type plus the inbox's address decode (local vs remote), so
 * processor requests have distinct local-service and forward-to-home
 * programs, exactly as the real protocol code does.
 */
struct HandlerPrograms
{
    ppisa::Program piGetLocal;   ///< PiGet serviced at home
    ppisa::Program piGetRemote;  ///< PiGet forwarded to a remote home
    ppisa::Program piGetxLocal;  ///< PiGetx serviced at home
    ppisa::Program piGetxRemote; ///< PiGetx forwarded to a remote home
    ppisa::Program piWbLocal;    ///< PiWriteback into local memory
    ppisa::Program piWbRemote;   ///< PiWriteback forwarded to home
    ppisa::Program piHintLocal;  ///< PiReplaceHint at home
    ppisa::Program piHintRemote; ///< PiReplaceHint forwarded to home
    ppisa::Program niGet;        ///< NetGet at home
    ppisa::Program niGetx;       ///< NetGetx at home
    ppisa::Program niFwdGet;     ///< NetFwdGet at the dirty owner
    ppisa::Program niFwdGetx;    ///< NetFwdGetx at the dirty owner
    ppisa::Program niSwb;        ///< NetSwb at home
    ppisa::Program niOwnXfer;    ///< NetOwnXfer at home
    ppisa::Program niInval;      ///< NetInval at a sharer
    ppisa::Program niInvalAck;   ///< NetInvalAck at the requester
    ppisa::Program niPut;        ///< NetPut at the requester
    ppisa::Program niPutx;       ///< NetPutx at the requester
    ppisa::Program niNack;       ///< NetNack at the requester
    ppisa::Program niWb;         ///< NetWriteback at home
    ppisa::Program niHint;       ///< NetReplaceHint at home
    ppisa::Program niBlockXfer;  ///< block-transfer chunk (msg passing)
    ppisa::Program niBlockAck;   ///< block-transfer completion
    ppisa::Program niFetchOp;    ///< fetch&op service at home
    ppisa::Program niFetchOpAck; ///< fetch&op result at the requester
    ppisa::Program piFetchOpRemote; ///< fetch&op forwarded to home

    /** Program dispatched for a message type (+ inbox address decode). */
    const ppisa::Program &forMessage(MsgType t, bool at_home) const;

    /** Like forMessage, but nullptr for types with no handler program —
     *  lets PpTimingModel build its dispatch table over every
     *  (type, at_home) slot without tripping the panic. */
    const ppisa::Program *forMessageOrNull(MsgType t, bool at_home) const;

    /** All programs, for code-size and toolchain statistics. */
    std::vector<const ppisa::Program *> all() const;

    /** Total static code size (Table 5.2 "static code size"). */
    std::size_t totalCodeBytes() const;
};

/** Compile all handler programs with the given compiler options. */
HandlerPrograms buildHandlerPrograms(const ppc::CompileOptions &opts = {});

/**
 * Process-wide cache of compiled handler programs, keyed by the
 * compile options. The handler toolchain is deterministic, so every
 * machine with the same options can share one immutable, pre-decoded
 * program set instead of re-running the compiler and the pre-decode
 * pass per Machine. Thread-safe (sweep workers construct machines
 * concurrently); the returned set is fully decoded before publication,
 * so the lazy Program::decoded() path is never raced.
 */
std::shared_ptr<const HandlerPrograms>
sharedHandlerPrograms(const ppc::CompileOptions &opts = {});

/**
 * Prepare the handler-ABI register file for @p msg arriving at @p self.
 * Inline: this runs once per handler invocation on the PP dispatch hot
 * path (see BM_PpDispatchCompiled), where an out-of-line copy of the
 * 256-byte register file costs as much as several executed pairs.
 */
inline ppisa::RegFile
makeHandlerRegs(const Message &msg, NodeId self, NodeId home,
                bool cache_dirty)
{
    // Not `RegFile regs{}`: GCC lowers that 256-byte value-init to a
    // rep-stos memset whose startup latency alone costs as much as the
    // defined-register stores below. Explicit stores (with the scratch
    // range unrolled so it is not re-idiomized into memset) compile to
    // straight vector stores at half the cost.
    ppisa::RegFile regs;
    std::uint64_t *const r = regs.data();
    r[0] = 0;
    r[1] = static_cast<std::uint64_t>(msg.type);
    r[2] = msg.addr;
    r[3] = msg.src;
    r[4] = msg.aux;
    r[5] = msg.requester;
    r[6] = self;
    r[7] = home;
    r[8] = headerAddr(msg.addr);
    r[9] = kLinkPoolBase;
    r[10] = cache_dirty ? 1 : 0;
    r[11] = ackAddr(msg.addr);
    // The inbox passes the raw message header through to the PP, so
    // pass-through sends (forwards, replies, NACKs) need no repacking.
    r[12] = packSendArg(msg.addr, msg.aux, msg.requester);
#pragma GCC unroll 19
    for (int i = 13; i < ppisa::kNumRegs; ++i)
        r[i] = 0;
    return regs;
}

/** Decode a PP Send back into a protocol message (for conformance). */
Message decodeSent(const ppisa::SentMessage &s, NodeId self);

} // namespace flashsim::protocol

#endif // FLASHSIM_PROTOCOL_PP_PROGRAMS_HH_
