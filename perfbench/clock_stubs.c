/* CLOCK_MONOTONIC in nanoseconds as a tagged OCaml int.  The benchmark
 * keeps its own clock so that its timings do not move when the
 * program's clock source changes. */

#include <caml/mlvalues.h>
#include <time.h>

value perfbench_now_ns(value unit)
{
    struct timespec ts;
    (void)unit;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}
