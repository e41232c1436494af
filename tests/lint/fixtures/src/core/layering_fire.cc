// Fixture: src/core reaching up into src/sim and into an unknown
// directory — both are layering findings.
#include "sim/event_queue.h"
#include "viz/renderer.h"
#include "util/site_set.h"  // allowed: util is below core

int LayeringFixture() { return 0; }
