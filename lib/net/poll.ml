(* poll(2) for the Sock receive path and its event loop — see
   poll_stubs.c.  Unlike Unix.select this scales past FD_SETSIZE, so
   the loopback mesh size is bounded by the RLIMIT_NOFILE budget
   instead of a hard 26. *)

external poll_readable : Unix.file_descr array -> int -> int list
  = "rmi_poll_readable"

external nofile_limit : unit -> int = "rmi_nofile_limit"

(* [readable fds ~timeout] waits up to [timeout] seconds (negative:
   indefinitely) and returns the indices into [fds] that are readable
   (or hung up / errored — a reader must reap those too), ascending.
   [] on timeout or interrupt.  The wait is passed on in whole
   microseconds, rounded up, so a 100 us slice stays 100 us. *)
let readable fds ~timeout =
  let us =
    if timeout < 0.0 then -1
    else if timeout = 0.0 then 0
    else max 1 (int_of_float (ceil (timeout *. 1e6)))
  in
  poll_readable fds us
