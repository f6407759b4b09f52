// sanctioned: tests link sqlnf_reference.
#include "sqlnf/reference/validate.h"
