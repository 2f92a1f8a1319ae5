(* Monotonic nanoseconds, allocation-free: the stub ships with
   bechamel's monotonic_clock library; declaring it here with an
   unboxed result keeps a timestamp off the minor heap, so the
   allocation counts the ladder reports are the layers' own. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
  [@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())
