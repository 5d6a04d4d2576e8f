#include <gtest/gtest.h>

#include "src/base/check.h"

namespace vsched {
namespace {

TEST(CheckTest, PassingCheckIsSilent) {
  VSCHED_CHECK(1 + 1 == 2);
  VSCHED_CHECK_MSG(true, "never shown");
  SUCCEED();
}

TEST(CheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH(VSCHED_CHECK(false), "VSCHED_CHECK failed");
  EXPECT_DEATH(VSCHED_CHECK_MSG(false, "context here"), "context here");
}

TEST(DcheckTest, CompiledPerBuildType) {
#ifdef NDEBUG
  VSCHED_DCHECK(false);  // Compiled out in release builds.
  SUCCEED();
#else
  EXPECT_DEATH(VSCHED_DCHECK(false), "VSCHED_CHECK failed");
#endif
}

}  // namespace
}  // namespace vsched
