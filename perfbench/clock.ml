(* CLOCK_MONOTONIC in nanoseconds, through bechamel's stub. Wall-clock
   reads from [Unix.gettimeofday] step in whole microseconds, which is too
   coarse for single requests that take one or two of them. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_between t0 t1 = float_of_int (t1 - t0) *. 1e-9
