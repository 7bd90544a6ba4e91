// Crash-point injection for the chaos-kill harness (DESIGN.md §14).
//
// The durability claims of the request journal — "an acknowledged request is
// never lost, a finished request is never re-executed" — are only worth
// stating if the process actually dies at the worst possible instants and
// comes back whole. Named crash points are compiled into the journal append /
// compaction / answer paths; disarmed they cost one relaxed atomic load.
//
// Two arming modes:
//   * process mode (the chaos tests' out-of-process harness): the daemon
//     arms from the NPTSN_CRASH_POINT environment variable and the N-th hit
//     of the named point kills the process with SIGKILL — no unwinding, no
//     destructors, exactly the power-loss the journal must survive;
//   * hook mode (in-process tests): set_crash_point_hook intercepts every
//     hit, so a unit test can observe ordering or throw InjectedFault-style
//     exceptions without dying.
//
// Arming is test-only by construction: nothing in production paths sets the
// environment variable or a hook, so every NPTSN_CRASH_POINT() is inert.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace nptsn {

// Announces a named crash point. No-op unless armed (one relaxed atomic load
// on the fast path). When the armed point's hit count is reached the process
// is SIGKILLed (or the installed hook runs instead).
void crash_point(const char* name);

// Arms `name` to fire on its `at_hit`-th crossing (1-based). Replaces any
// previous arming. at_hit <= 0 disarms.
void arm_crash_point(const std::string& name, int at_hit = 1);
void disarm_crash_points();

// Reads NPTSN_CRASH_POINT ("name" or "name@hit", hit a whole decimal >= 1)
// and arms accordingly. Returns true when a point was armed; a malformed spec
// ("name@2x", "name@0", "@3") arms nothing. The serve daemon calls this at
// boot so the chaos harness can plant crashes inside a real process.
bool arm_crash_point_from_env();

// In-process interception: when set, the hook runs on the armed point's
// firing instead of SIGKILL (it may throw). Cleared with nullptr.
void set_crash_point_hook(std::function<void(const char*)> hook);

// The compiled-in crash point names, for harnesses that randomize over them.
const std::vector<std::string>& known_crash_points();

}  // namespace nptsn
