module Timeseries = Rfd_engine.Timeseries
module Hooks = Rfd_bgp.Hooks

type t = {
  mutable updates : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable first_update : float option;
  mutable last_update : float option;
  update_series : Timeseries.t;
  damped_series : Timeseries.t;
  mutable damped_now : int;
  mutable peak_damped : int;
  mutable suppress_events : int;
  mutable reuse_events : int;
  mutable noisy_reuse_events : int;
  mutable peak_penalty : float;
  mutable first_reuse : float option;
  mutable reuse_log : (float * int * int * bool) list; (* newest first *)
  reuse_series : Timeseries.t;
  probes : (int * int, Timeseries.t) Hashtbl.t;
  (* Oracle-state accounting: running balances of the timer machinery,
     maintained from the MRAI and reuse-timer lifecycle hooks. *)
  mutable mrai_pending_now : int;
  mutable flush_armed_now : int;
  mutable reuse_timers_now : int;
  mutable mrai_queued_events : int;
  mutable mrai_flushed_events : int;
  mutable last_mrai : float option;
  mutable last_timer : float option;
  mrai_pending_series : Timeseries.t;
  flush_armed_series : Timeseries.t;
  reuse_timer_series : Timeseries.t;
}

let create ?(probe_pairs = []) () =
  let probes = Hashtbl.create (max 1 (List.length probe_pairs)) in
  List.iter
    (fun (router, peer) ->
      Hashtbl.replace probes (router, peer)
        (Timeseries.create ~name:(Printf.sprintf "penalty r%d<-p%d" router peer) ()))
    probe_pairs;
  {
    updates = 0;
    dropped = 0;
    duplicated = 0;
    first_update = None;
    last_update = None;
    update_series = Timeseries.create ~name:"updates" ();
    damped_series = Timeseries.create ~name:"damped-links" ();
    damped_now = 0;
    peak_damped = 0;
    suppress_events = 0;
    reuse_events = 0;
    noisy_reuse_events = 0;
    peak_penalty = 0.;
    first_reuse = None;
    reuse_log = [];
    reuse_series = Timeseries.create ~name:"reuses" ();
    probes;
    mrai_pending_now = 0;
    flush_armed_now = 0;
    reuse_timers_now = 0;
    mrai_queued_events = 0;
    mrai_flushed_events = 0;
    last_mrai = None;
    last_timer = None;
    mrai_pending_series = Timeseries.create ~name:"mrai-pending" ();
    flush_armed_series = Timeseries.create ~name:"armed-flushes" ();
    reuse_timer_series = Timeseries.create ~name:"reuse-timers" ();
  }

let attach t (hooks : Hooks.t) =
  hooks.Hooks.on_deliver <-
    (fun ~time ~src:_ ~dst:_ _ ->
      t.updates <- t.updates + 1;
      if t.first_update = None then t.first_update <- Some time;
      t.last_update <- Some time;
      Timeseries.add t.update_series ~time 1.);
  hooks.Hooks.on_drop <- (fun ~time:_ ~src:_ ~dst:_ _ -> t.dropped <- t.dropped + 1);
  hooks.Hooks.on_duplicate <-
    (fun ~time:_ ~src:_ ~dst:_ _ -> t.duplicated <- t.duplicated + 1);
  hooks.Hooks.on_suppress <-
    (fun ~time ~router:_ ~peer:_ ~prefix:_ ->
      t.suppress_events <- t.suppress_events + 1;
      t.damped_now <- t.damped_now + 1;
      if t.damped_now > t.peak_damped then t.peak_damped <- t.damped_now;
      Timeseries.add t.damped_series ~time (float_of_int t.damped_now));
  hooks.Hooks.on_reuse <-
    (fun ~time ~router ~peer ~prefix:_ ~noisy ->
      t.reuse_log <- (time, router, peer, noisy) :: t.reuse_log;
      t.reuse_events <- t.reuse_events + 1;
      if noisy then t.noisy_reuse_events <- t.noisy_reuse_events + 1;
      if t.first_reuse = None then t.first_reuse <- Some time;
      Timeseries.add t.reuse_series ~time 1.;
      t.damped_now <- t.damped_now - 1;
      Timeseries.add t.damped_series ~time (float_of_int t.damped_now);
      t.reuse_timers_now <- t.reuse_timers_now - 1;
      t.last_timer <- Some time;
      Timeseries.add t.reuse_timer_series ~time (float_of_int t.reuse_timers_now));
  hooks.Hooks.on_reuse_schedule <-
    (fun ~time ~router:_ ~peer:_ ~prefix:_ ~at:_ ->
      t.reuse_timers_now <- t.reuse_timers_now + 1;
      t.last_timer <- Some time;
      Timeseries.add t.reuse_timer_series ~time (float_of_int t.reuse_timers_now));
  hooks.Hooks.on_mrai <-
    (fun ~time ~router:_ ~peer:_ ~prefix:_ action ->
      t.last_mrai <- Some time;
      (match action with
      | Hooks.Mrai_queued ->
          t.mrai_queued_events <- t.mrai_queued_events + 1;
          t.mrai_pending_now <- t.mrai_pending_now + 1
      | Hooks.Mrai_sent ->
          t.mrai_flushed_events <- t.mrai_flushed_events + 1;
          t.mrai_pending_now <- t.mrai_pending_now - 1
      | Hooks.Mrai_superseded | Hooks.Mrai_cancelled ->
          t.mrai_pending_now <- t.mrai_pending_now - 1
      | Hooks.Flush_armed -> t.flush_armed_now <- t.flush_armed_now + 1
      | Hooks.Flush_fired | Hooks.Flush_cancelled ->
          t.flush_armed_now <- t.flush_armed_now - 1);
      match action with
      | Hooks.Mrai_queued | Hooks.Mrai_sent | Hooks.Mrai_superseded | Hooks.Mrai_cancelled
        ->
          Timeseries.add t.mrai_pending_series ~time (float_of_int t.mrai_pending_now)
      | Hooks.Flush_armed | Hooks.Flush_fired | Hooks.Flush_cancelled ->
          Timeseries.add t.flush_armed_series ~time (float_of_int t.flush_armed_now));
  hooks.Hooks.on_penalty <-
    (fun ~time ~router ~peer ~prefix:_ ~penalty ->
      if penalty > t.peak_penalty then t.peak_penalty <- penalty;
      (* Most runs probe nothing: skip the tuple key and its hashing. *)
      if Hashtbl.length t.probes > 0 then
        match Hashtbl.find_opt t.probes (router, peer) with
        | Some series -> Timeseries.add series ~time penalty
        | None -> ())

let update_count t = t.updates
let dropped_updates t = t.dropped
let duplicated_updates t = t.duplicated
let mrai_pending_now t = t.mrai_pending_now
let flush_armed_now t = t.flush_armed_now
let reuse_timers_now t = t.reuse_timers_now
let mrai_queued_events t = t.mrai_queued_events
let mrai_flushed_events t = t.mrai_flushed_events
let last_mrai_time t = t.last_mrai
let last_timer_time t = t.last_timer
let mrai_pending_series t = t.mrai_pending_series
let flush_armed_series t = t.flush_armed_series
let reuse_timer_series t = t.reuse_timer_series
let first_update_time t = t.first_update
let last_update_time t = t.last_update
let update_series t = t.update_series
let damped_series t = t.damped_series
let damped_now t = t.damped_now
let peak_damped t = t.peak_damped
let suppress_events t = t.suppress_events
let reuse_events t = t.reuse_events
let noisy_reuse_events t = t.noisy_reuse_events
let peak_penalty t = t.peak_penalty
let first_reuse_time t = t.first_reuse
let reuse_series t = t.reuse_series
let reuse_log t = List.rev t.reuse_log
let penalty_trace t ~router ~peer = Hashtbl.find_opt t.probes (router, peer)

let probed_pairs t =
  Hashtbl.fold (fun pair _ acc -> pair :: acc) t.probes [] |> List.sort compare
