/* The monotonic clock every timer, deadline and timing in the project
   reads. */

#include <time.h>

#include <caml/mlvalues.h>

/* rmi_clock_now_us : unit -> int  [@@noalloc]
   CLOCK_MONOTONIC in microseconds.  Unlike gettimeofday it never steps
   when the wall clock is set, so a deadline or retransmit timer read
   from it can neither expire early nor stretch.  Allocates nothing and
   takes no runtime lock, so the OCaml side declares it [@@noalloc]. */
CAMLprim value rmi_clock_now_us(value v_unit)
{
    struct timespec ts;
    (void)v_unit;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return Val_long((intnat)ts.tv_sec * 1000000 + ts.tv_nsec / 1000);
}
