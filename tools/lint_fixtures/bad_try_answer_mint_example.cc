// Fixture: budget-barrier-dominance must fire on a member .try_answer()
// call outside mint_answer_with_intent.  try_answer() draws the noise
// itself once its barrier returns true, so a market function that calls it
// with any other barrier mints budget with no durable intent.
// NOT compiled.

namespace prc_lint_fixture {

struct TryAnswerFixtureCounter {
  int try_answer(int range, int spec, bool (*barrier)(int));
};

bool approve_everything(int) { return true; }

// budget-barrier-dominance: mints without crossing the WAL intent barrier.
int bad_try_answer_entry(TryAnswerFixtureCounter& counter, int range,
                         int spec) {
  return counter.try_answer(range, spec, approve_everything);
}

}  // namespace prc_lint_fixture
