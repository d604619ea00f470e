/* Trace.now_ns: CLOCK_MONOTONIC in nanoseconds, unboxed in native code. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

int64_t altune_monotonic_now(value unit)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

value altune_monotonic_now_byte(value unit)
{
  return caml_copy_int64(altune_monotonic_now(unit));
}
