// Fixture: budget-barrier-dominance must fire on member .answer()/.perturb()
// calls outside mint_answer_with_intent in market/mint files.

struct Counter {
  double answer(int range, double spec);
  double perturb(double value);
};

double bad_direct_mint(Counter& counter) {
  // Minting with no durable intent: a crash right after this call would
  // under-count the released budget.
  return counter.answer(3, 0.5);
}

double bad_pointer_mint(Counter* counter) {
  return counter->perturb(41.0);
}

double clean_named_barrier_helper(Counter& counter) {
  // The allow hatch must silence the rule.
  return counter.answer(3, 0.5);  // lint:allow mint — fixture escape check
}
