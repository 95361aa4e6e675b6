(** The monotonic clock ([CLOCK_MONOTONIC]) in microseconds.  A wall
    clock step moves none of its readings, so deadlines and timers
    computed from it neither end early nor stretch.  Its origin is
    arbitrary: only differences between readings mean anything. *)

(** The current reading, in microseconds.  Allocates nothing. *)
val now_us : unit -> int

(** [us_of_seconds seconds] is the span in microseconds (clamped to
    10{^12} s). *)
val us_of_seconds : float -> int

(** [deadline_after seconds] is the reading [seconds] from now
    (clamped to 10{^12} s). *)
val deadline_after : float -> int

(** [remaining deadline] is the time left until [deadline] in seconds;
    zero or negative once it has passed. *)
val remaining : int -> float
