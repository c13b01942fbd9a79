#include "search/probe_driver.hpp"

#include <stdexcept>

namespace mlcd::search {
namespace {

// Write-ahead append with the journal-on-error policy applied: abort
// rethrows the typed JournalError (the run fails as kJournalError);
// degrade drops the session to journal-less operation and lets the
// already-accounted step be admitted normally — in-memory search state
// stays consistent either way.
void journal_step(SearchSession& session,
                  const journal::ProbeRecord& record) {
  journal::RecordSink* journal = session.journal();
  if (journal == nullptr) return;
  try {
    journal->append_probe(record);
  } catch (const journal::JournalError& e) {
    if (session.problem().journal_on_error == journal::OnError::kAbort) {
      throw;
    }
    session.degrade_journal(e.what());
  }
}

}  // namespace

bool ProbeDriver::step(SearchSession& session) {
  const ProbeRequest* pending = session.next();
  if (pending == nullptr) return false;
  // Copy the request: observe() clears the pending slot it points into.
  const ProbeRequest request = *pending;

  const profiler::ProfileResult outcome = session.profiler().profile(
      session.problem().config,
      profiler::ProbeRequest{request.deployment, request.fidelity});
  ProbeStep step = session.account(request, outcome);

  // Write-ahead discipline: durable before admitted. Replayed steps are
  // already on disk — appending them again would duplicate records on
  // every resume.
  if (!outcome.replayed) {
    journal_step(session, to_journal_record(step));
  }
  session.observe(std::move(step));
  return true;
}

void ProbeDriver::drive(SearchSession& session) {
  while (step(session)) {
  }
}

journal::ProbeRecord ProbeDriver::step_losing_result(
    SearchSession& session) {
  const ProbeRequest* pending = session.next();
  if (pending == nullptr) {
    throw std::logic_error(
        "ProbeDriver::step_losing_result: no pending probe");
  }
  const ProbeRequest request = *pending;

  const profiler::ProfileResult outcome = session.profiler().profile(
      session.problem().config,
      profiler::ProbeRequest{request.deployment, request.fidelity});
  const ProbeStep step = session.account(request, outcome);
  const journal::ProbeRecord record = to_journal_record(step);
  if (!outcome.replayed) {
    journal_step(session, record);
  }
  // `step` goes out of scope unobserved: that is the injected loss. The
  // record image above is all that survives — exactly what a crash
  // between journaling and admission would leave behind.
  return record;
}

void ProbeDriver::admit_recovered(SearchSession& session,
                                  const journal::ProbeRecord& record) {
  ProbeStep step = from_journal_record(record);
  // The step was executed (and billed) live this run — it only
  // round-tripped through its durable image — so it is not a replay.
  step.replayed = false;
  session.observe(std::move(step));
}

}  // namespace mlcd::search
