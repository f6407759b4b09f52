// Violation fixture: a serving source reaching for the row-major
// oracle. The include on line 5 must fire; the commented-out one on
// line 6 and the serving header on line 7 must not.

#include "sqlnf/reference/relops.h"
// #include "sqlnf/related/possible_worlds.h"
#include "sqlnf/engine/relops.h"
