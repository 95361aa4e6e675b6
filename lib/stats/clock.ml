(* The monotonic microsecond clock — see clock_stubs.c. *)

external now_us : unit -> int = "rmi_clock_now_us" [@@noalloc]

(* clamped so an infinite or absurd wait still fits an int *)
let us_of_seconds seconds = int_of_float (Float.min seconds 1e12 *. 1e6)
let deadline_after seconds = now_us () + us_of_seconds seconds
let remaining deadline = float_of_int (deadline - now_us ()) *. 1e-6
