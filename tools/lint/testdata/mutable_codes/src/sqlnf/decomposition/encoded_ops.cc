namespace sqlnf {
void Emit(EncodedTable* t) {
  auto* dst = t->mutable_codes(0);  // sanctioned: the join's fill loop
  (void)dst;
}
}  // namespace sqlnf
