// Fixture: budget-barrier-dominance must stay silent on the sanctioned barrier
// helper, on comments/strings, and on non-member uses of the idents.

struct Counter {
  double answer(int range, double spec);
  double perturb(double value);
};

double mint_answer_with_intent(Counter& counter) {
  // The ONE place a mint is legal: the WAL intent barrier wraps the call.
  return counter.answer(3, 0.5);
}

double clean_mentions_only(double answer) {
  // counter.answer(...) in a comment must not fire, nor the string below.
  const char* label = "counter.perturb(x) is described, not called";
  (void)label;
  return answer;  // a local named `answer` is not a mint
}

double clean_free_function_call() {
  // `answer(` without a preceding `.`/`->` is a declaration or free call,
  // not a member mint.
  double (*answer)(int) = nullptr;
  return answer == nullptr ? 0.0 : 1.0;
}
