/* poll(2) bindings for the Sock receive path and its connection
   event loop.

   Unix.select caps the mesh at FD_SETSIZE descriptors (1024 on Linux),
   which PR 7 worked around with a hard 26-machine loopback ceiling.
   poll has no such limit; the ceiling becomes the process RLIMIT_NOFILE
   budget, exposed here too. */

#define _GNU_SOURCE /* ppoll */
#include <poll.h>
#include <time.h>
#include <errno.h>
#include <stdlib.h>
#include <sys/resource.h>

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>
#include <caml/threads.h>

/* Wait up to [timeout_us] microseconds (positive) on [pfds].  ppoll
   takes the timeout to the nanosecond, so a sub-millisecond wait stays
   sub-millisecond. */
static int poll_us(struct pollfd *pfds, int n, long timeout_us)
{
    struct timespec ts;
    ts.tv_sec = timeout_us / 1000000;
    ts.tv_nsec = (timeout_us % 1000000) * 1000;
    return ppoll(pfds, n, &ts, NULL);
}

/* rmi_poll_readable : Unix.file_descr array -> int -> int list
   Waits up to [timeout_us] microseconds (negative: indefinitely) for
   readability (or error/hangup, which a reader must also see to reap
   the dead connection) on any of [fds]; returns the indices of the
   ready descriptors, ascending.  Interrupts and transient errors
   return the empty list — the caller's loop just comes around again.

   A zero timeout cannot block, so it keeps the runtime lock: the
   receiver's non-blocking drain polls on every empty receive, and
   handing the lock to another thread there would cost a wake-up per
   call.  Nothing is allocated on the OCaml heap unless a descriptor is
   ready. */
CAMLprim value rmi_poll_readable(value v_fds, value v_timeout_us)
{
    CAMLparam2(v_fds, v_timeout_us);
    CAMLlocal2(v_list, v_cell);

    int n = Wosize_val(v_fds);
    long timeout = Long_val(v_timeout_us);
    struct pollfd *pfds = NULL;
    int ready = 0;

    if (n > 0) {
        pfds = malloc(n * sizeof(struct pollfd));
        if (pfds == NULL) CAMLreturn(Val_emptylist);
        for (int i = 0; i < n; i++) {
            pfds[i].fd = Int_val(Field(v_fds, i));
            pfds[i].events = POLLIN;
            pfds[i].revents = 0;
        }
        if (timeout == 0) {
            ready = poll(pfds, n, 0);
        } else {
            caml_release_runtime_system();
            ready = timeout < 0 ? poll(pfds, n, -1) : poll_us(pfds, n, timeout);
            caml_acquire_runtime_system();
        }
    }

    v_list = Val_emptylist;
    if (ready > 0) {
        /* build the index list back-to-front so it comes out ascending */
        for (int i = n - 1; i >= 0; i--) {
            if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) {
                v_cell = caml_alloc_small(2, Tag_cons);
                Field(v_cell, 0) = Val_int(i);
                Field(v_cell, 1) = v_list;
                v_list = v_cell;
            }
        }
    }
    free(pfds);
    CAMLreturn(v_list);
}

/* rmi_nofile_limit : unit -> int
   The soft RLIMIT_NOFILE ceiling, clamped into a sane int range;
   falls back to 1024 (the old FD_SETSIZE world) if getrlimit fails. */
CAMLprim value rmi_nofile_limit(value v_unit)
{
    CAMLparam1(v_unit);
    struct rlimit rl;
    long lim = 1024;
    if (getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur != RLIM_INFINITY) {
        lim = (long)rl.rlim_cur;
        if (lim > 1 << 20) lim = 1 << 20;
        if (lim < 64) lim = 64;
    } else if (getrlimit(RLIMIT_NOFILE, &rl) == 0) {
        lim = 1 << 20;
    }
    CAMLreturn(Val_long(lim));
}
