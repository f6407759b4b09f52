// Violation fixture: a tool links the serving library alone.
#include "sqlnf/related/alt_semantics.h"
