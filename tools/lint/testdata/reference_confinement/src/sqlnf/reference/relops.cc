// sanctioned: the reference library includes its own headers.
#include "sqlnf/reference/relops.h"
#include "sqlnf/related/possible_worlds.h"
