#include "cpu/processor.hh"

#include "sim/logging.hh"

namespace flashsim::cpu
{

Tick
Processor::absorbContention()
{
    Tick free_at = cache_.freeAt();
    if (free_at <= cursor_)
        return 0;
    Tick wait = free_at - cursor_;
    cursor_ = free_at;
    bd_.cont += wait;
    return wait;
}

void
Processor::chargeStall(Tick cycles, bool in_sync, Tick Breakdown::*slot)
{
    if (in_sync)
        bd_.sync += cycles;
    else
        bd_.*slot += cycles;
}

void
Processor::read(Addr addr, bool in_sync, Callback h)
{
    busy(1, in_sync); // the load instruction itself
    eq_.scheduleAt(cursor_, [this, addr, in_sync, h] {
        absorbContention();
        attemptRead(addr, in_sync, cursor_, h);
    });
}

void
Processor::attemptRead(Addr addr, bool in_sync, Tick stall_start,
                       Callback h)
{
    Cache::ReadOutcome out =
        cache_.read(addr, [this, in_sync, stall_start, h] {
            // First 8 bytes delivered (critical word first).
            if (cache_.completingDegraded())
                ++degradedResumes;
            cursor_ = eq_.now();
            chargeStall(cursor_ - stall_start, in_sync,
                        &Breakdown::read);
            h.resume();
        });
    switch (out) {
      case Cache::ReadOutcome::Hit:
        chargeStall(cursor_ - stall_start, in_sync, &Breakdown::read);
        h.resume();
        return;
      case Cache::ReadOutcome::Miss:
        return; // the fill callback resumes the processor
      case Cache::ReadOutcome::MshrFull:
        cache_.onMshrFree([this, addr, in_sync, stall_start, h] {
            cursor_ = eq_.now();
            absorbContention();
            attemptRead(addr, in_sync, stall_start, h);
        });
        return;
    }
}

void
Processor::write(Addr addr, bool in_sync, Callback h)
{
    busy(1, in_sync); // the store instruction itself
    eq_.scheduleAt(cursor_, [this, addr, in_sync, h] {
        absorbContention();
        attemptWrite(addr, in_sync, cursor_, h);
    });
}

void
Processor::attemptWrite(Addr addr, bool in_sync, Tick stall_start,
                        Callback h)
{
    Cache::WriteOutcome out = cache_.write(addr);
    switch (out) {
      case Cache::WriteOutcome::Done:
      case Cache::WriteOutcome::Queued:
        chargeStall(cursor_ - stall_start, in_sync, &Breakdown::write);
        h.resume();
        return;
      case Cache::WriteOutcome::Conflict:
      case Cache::WriteOutcome::MshrFull:
        cache_.onMshrFree([this, addr, in_sync, stall_start, h] {
            cursor_ = eq_.now();
            absorbContention();
            attemptWrite(addr, in_sync, stall_start, h);
        });
        return;
    }
}

void
Processor::absorbExternalWait(bool in_sync)
{
    Tick now = eq_.now();
    if (now <= cursor_)
        return;
    chargeStall(now - cursor_, in_sync, &Breakdown::read);
    cursor_ = now;
}

void
Processor::markFinished()
{
    if (finished_)
        panic("Processor %u finished twice", self_);
    finished_ = true;
    finishTime_ = cursor_;
}

} // namespace flashsim::cpu
