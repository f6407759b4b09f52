// sanctioned: the related-work reproductions are reference sources too.
#include "sqlnf/related/possible_worlds.h"
