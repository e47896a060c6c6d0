(* The monitor's oldest pending age as first written: a walk over the
   whole pending table at every sample, O(pending) per sample. Kept only
   as the reference that [Cylog.Monitor]'s cursor must agree with
   ([test_monitor.ml]). *)

open Cylog

(* [pending] holds (id, created-at) pairs. *)
let oldest_age pending ~clock =
  Seq.fold_left (fun acc (_, created) -> max acc (clock - created)) 0 pending

(* The age each [Sampled] effect of [events] reads, in log order: a fresh
   fold of the log, walked at every sample. *)
let ages events =
  let f = Fold.create () and m = Telemetry.Metrics.create () in
  List.concat_map
    (fun (ev : Event.event) ->
      Fold.apply f m ev;
      List.filter_map
        (function
          | Event.Sampled _ -> Some (oldest_age (Hashtbl.to_seq f.created) ~clock:ev.clock)
          | _ -> None)
        ev.effects)
    events
