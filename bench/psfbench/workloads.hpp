// The four psfbench workloads and the per-layer replays (see README.md for
// why each workload exists and which layer metric should move on it).
#pragma once

#include <string>

#include "harness.hpp"

namespace psfbench {

/// The names --workload accepts that run on the event core.
bool is_event_core_workload(const std::string& name);

/// sso_read, mail_write, fanout_100k: role-view calls over event-core
/// sessions.
RunResult run_event_core(const Options& options);

/// session_churn: Psf::request under credential churn.
RunResult run_churn(const Options& options);

/// --layer seal|select_view|view_call|revoke: replay one layer's inputs
/// alone and print its numbers. Returns the process exit code.
int run_layer(const std::string& layer, const Options& options);

/// The select_view and view_call replays, over the event-core fixture's
/// principals, origins and views.
void run_select_view_layer(const Options& options, Report& report);
void run_view_call_layer(const Options& options, Report& report);

/// The revoke replay, over session_churn's scenario and principals.
void run_revoke_layer(const Options& options, Report& report);

/// seal+unseal round trip of a request and its response through
/// SessionCrypto at the given plaintext sizes; p50 nanoseconds.
double seal_unseal_p50_ns(std::size_t request_bytes,
                          std::size_t response_bytes, std::uint64_t seed,
                          int iterations);

}  // namespace psfbench
