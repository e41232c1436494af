// The release schema registry: every stable dynvote-*-vN identifier the
// project emits, paired with the label `dynvote --version` prints. This
// is the single list the CLI iterates, so adding a schema constant
// anywhere in the tree without registering it here is caught by
// tests/lint/version_schemas_test.cc, which diffs this array against
// every schema token the lint scanner finds under src/, bench/ and
// tools/.
//
// The tokens reference the owning headers' constants — never string
// literals — so a version bump at the definition site propagates here
// and into --version automatically.

#pragma once

#include <array>

#include "check/counterexample.h"  // check::kCounterExampleSchema
#include "lint/lint.h"             // lint::kLintSchema
#include "model/open_loop.h"       // kServingSchema
#include "obs/schemas.h"           // trace / btrace / metrics / bench

namespace dynvote {

struct VersionedSchema {
  const char* label;
  const char* token;
};

inline constexpr std::array<VersionedSchema, 8> kAllSchemas = {{
    {"bench", kHotpathBenchSchema},
    {"check bench", kCheckBenchSchema},
    {"trace", kTraceSchema},
    {"binary trace", kBinaryTraceSchema},
    {"metrics", kMetricsSchema},
    {"serving", kServingSchema},
    {"counterexample", check::kCounterExampleSchema},
    {"lint", lint::kLintSchema},
}};

}  // namespace dynvote
