(* Measurement helpers shared by every workload. Everything here observes
   the library from outside, through its public API: wall and CPU clocks
   around calls, order statistics, /proc readers, Gc.quick_stat deltas,
   Runtime_events GC spans, and counters wrapped around the public
   [Hooks] fields inside [Runner.run ~observe]. *)

module Runner = Rfd.Runner
module Network = Rfd.Network
module Hooks = Rfd.Hooks
module Router = Rfd.Router

let now = Rfd.Clock.wall
let cpu = Rfd.Clock.cpu

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks (the numpy default). *)
let quantile xs q =
  match List.sort Float.compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0. xs

(* Median of [reps] timings of [f], in seconds. *)
let median_time ~reps f = median (List.init reps (fun _ -> snd (timed f)))

(* ---- /proc ---------------------------------------------------------- *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (In_channel.input_all ic))

(* A "Field:   123 kB" line of /proc/<pid>/status, in kB; 0 when absent. *)
let status_kb ?(pid = "self") field =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> 0
  | Some text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.sub line 0 i = field ->
                 String.sub line (i + 1) (String.length line - i - 1)
                 |> String.trim |> String.split_on_char ' ' |> List.hd
                 |> int_of_string_opt
             | _ -> None)
      |> Option.value ~default:0

(* utime + stime of another process, in seconds (USER_HZ = 100 on Linux). *)
let proc_cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> 0.
  | Some text -> (
      (* The command name may contain spaces; fields resume after ')'. *)
      let from = String.rindex text ')' + 2 in
      match String.split_on_char ' ' (String.sub text from (String.length text - from)) with
      | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: utime :: stime :: _ ->
          (float_of_string utime +. float_of_string stime) /. 100.
      | _ -> 0.)

(* Steal time per virtual CPU, in seconds (USER_HZ = 100): time the
   hypervisor ran another guest while this one wanted its CPUs. On a busy
   host it comes in bursts and reaches a third of wall time, and it
   accrues on idle virtual CPUs at the same rate as on busy ones, so the
   mean over CPUs is what a running thread lost. 0 where /proc/stat has
   no steal field. *)
let steal_s () =
  match read_file "/proc/stat" with
  | None -> 0.
  | Some text -> (
      let lines = String.split_on_char '\n' text in
      let ncpu =
        List.length
          (List.filter
             (fun l -> String.length l > 3 && String.sub l 0 3 = "cpu" && l.[3] <> ' ')
             lines)
      in
      match String.split_on_char ' ' (List.hd lines) |> List.filter (( <> ) "") with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ when ncpu > 0 ->
          float_of_string steal /. 100. /. float_of_int ncpu
      | _ -> 0.)

(* Wall time of [f] less the steal time per virtual CPU during it. *)
let timed_net f =
  let s0 = steal_s () in
  let r, wall = timed f in
  (r, wall -. (steal_s () -. s0))

(* ---- GC ------------------------------------------------------------- *)

type gc = { minor_words : float; major_collections : int }

let gc_delta f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  ( r,
    {
      minor_words = b.Gc.minor_words -. a.Gc.minor_words;
      major_collections = b.Gc.major_collections - a.Gc.major_collections;
    } )

(* GC pauses from a Runtime_events ring: per ring (domain), the outermost
   runtime span is one pause. Condition waits are idle time, not GC, and
   are left out. *)
module Pauses = struct
  type t = {
    cursor : Runtime_events.cursor;
    depth : (int, int * int64) Hashtbl.t;  (* ring -> depth, outer start *)
    mutable total_ns : int64;
    mutable max_ns : int64;
    mutable spans : int;
    mutable lost : int;
  }

  let idle = function Runtime_events.EV_DOMAIN_CONDITION_WAIT -> true | _ -> false

  let callbacks t =
    let runtime_begin ring ts phase =
      if not (idle phase) then
        let d, start =
          Option.value (Hashtbl.find_opt t.depth ring) ~default:(0, 0L)
        in
        let ts = Runtime_events.Timestamp.to_int64 ts in
        Hashtbl.replace t.depth ring (d + 1, if d = 0 then ts else start)
    in
    let runtime_end ring ts phase =
      if not (idle phase) then
        match Hashtbl.find_opt t.depth ring with
        | Some (1, start) ->
            let span = Int64.sub (Runtime_events.Timestamp.to_int64 ts) start in
            t.total_ns <- Int64.add t.total_ns span;
            if span > t.max_ns then t.max_ns <- span;
            t.spans <- t.spans + 1;
            Hashtbl.replace t.depth ring (0, 0L)
        | Some (d, start) when d > 1 -> Hashtbl.replace t.depth ring (d - 1, start)
        | _ -> ()
    in
    let lost_events ring n =
      t.lost <- t.lost + n;
      Hashtbl.replace t.depth ring (0, 0L)
    in
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()

  (* [None] = this process (starting its ring), [Some (dir, pid)] = a
     child started with OCAML_RUNTIME_EVENTS_START. *)
  let attach target =
    if target = None then Runtime_events.start ();
    let cursor = Runtime_events.create_cursor target in
    { cursor; depth = Hashtbl.create 4; total_ns = 0L; max_ns = 0L; spans = 0; lost = 0 }

  let poll t = ignore (Runtime_events.read_poll t.cursor (callbacks t) None : int)

  (* Read and drop everything written so far: spans start counting now. *)
  let reset t =
    poll t;
    Hashtbl.reset t.depth;
    t.total_ns <- 0L;
    t.max_ns <- 0L;
    t.spans <- 0;
    t.lost <- 0

  let total_ms t = Int64.to_float t.total_ns /. 1e6
  let max_ms t = Int64.to_float t.max_ns /. 1e6
  let close t = Runtime_events.free_cursor t.cursor

  (* Poll this process's own ring from a helper thread while [f] runs, so
     the ring never wraps during long computations. A thread, not a
     domain: another domain would join every stop-the-world collection. *)
  let around_self f =
    let t = attach None in
    let stop = Atomic.make false in
    let poller =
      Thread.create
        (fun () ->
          let cb = callbacks t in
          while not (Atomic.get stop) do
            ignore (Runtime_events.read_poll t.cursor cb None : int);
            Thread.delay 0.02
          done)
        ()
    in
    let r = Fun.protect ~finally:(fun () -> Atomic.set stop true; Thread.join poller) f in
    poll t;
    (r, t)
end

(* ---- hook counters and traced runs ----------------------------------- *)

type counters = {
  mutable delivered : int;
  mutable best_changes : int;
  mutable mrai_queued : int;
  mutable mrai_flushes : int;
  mutable penalties : int;
  mutable suppressions : int;
  mutable reuse_noisy : int;
  mutable reuse_silent : int;
}

let counters () =
  {
    delivered = 0;
    best_changes = 0;
    mrai_queued = 0;
    mrai_flushes = 0;
    penalties = 0;
    suppressions = 0;
    reuse_noisy = 0;
    reuse_silent = 0;
  }

let add_counters a b =
  a.delivered <- a.delivered + b.delivered;
  a.best_changes <- a.best_changes + b.best_changes;
  a.mrai_queued <- a.mrai_queued + b.mrai_queued;
  a.mrai_flushes <- a.mrai_flushes + b.mrai_flushes;
  a.penalties <- a.penalties + b.penalties;
  a.suppressions <- a.suppressions + b.suppressions;
  a.reuse_noisy <- a.reuse_noisy + b.reuse_noisy;
  a.reuse_silent <- a.reuse_silent + b.reuse_silent

(* Wrap the public hook fields; each wrapper counts, then calls the hook
   it replaced, so the run's own collector still sees every event. *)
let attach_counters c net =
  let h = Network.hooks net in
  let deliver = h.Hooks.on_deliver in
  h.on_deliver <-
    (fun ~time ~src ~dst u ->
      c.delivered <- c.delivered + 1;
      deliver ~time ~src ~dst u);
  let best = h.on_best_change in
  h.on_best_change <-
    (fun ~time ~router ~prefix ~best:b ->
      c.best_changes <- c.best_changes + 1;
      best ~time ~router ~prefix ~best:b);
  let mrai = h.on_mrai in
  h.on_mrai <-
    (fun ~time ~router ~peer ~prefix action ->
      (match action with
      | Hooks.Mrai_queued -> c.mrai_queued <- c.mrai_queued + 1
      | Hooks.Flush_fired -> c.mrai_flushes <- c.mrai_flushes + 1
      | _ -> ());
      mrai ~time ~router ~peer ~prefix action);
  let penalty = h.on_penalty in
  h.on_penalty <-
    (fun ~time ~router ~peer ~prefix ~penalty:p ->
      c.penalties <- c.penalties + 1;
      penalty ~time ~router ~peer ~prefix ~penalty:p);
  let suppress = h.on_suppress in
  h.on_suppress <-
    (fun ~time ~router ~peer ~prefix ->
      c.suppressions <- c.suppressions + 1;
      suppress ~time ~router ~peer ~prefix);
  let reuse = h.on_reuse in
  h.on_reuse <-
    (fun ~time ~router ~peer ~prefix ~noisy ->
      if noisy then c.reuse_noisy <- c.reuse_noisy + 1
      else c.reuse_silent <- c.reuse_silent + 1;
      reuse ~time ~router ~peer ~prefix ~noisy)

type traced = {
  result : Runner.result;
  settle_s : float;  (* run start to the observe callback (initial convergence) *)
  flap_s : float;  (* observe callback to the result *)
  counts : counters;
  compactions : int;
  net : Network.t option;  (* final network, kept only on request *)
}

let run_traced ?(keep_net = false) scenario =
  let counts = counters () in
  let t_obs = ref nan and sim = ref None and net = ref None in
  let observe n =
    t_obs := now ();
    attach_counters counts n;
    sim := Some (Network.sim n);
    if keep_net then net := Some n
  in
  let t0 = now () in
  let result = Runner.run ~observe scenario in
  let t1 = now () in
  {
    result;
    settle_s = !t_obs -. t0;
    flap_s = t1 -. !t_obs;
    counts;
    compactions = (match !sim with Some s -> Rfd.Sim.compactions s | None -> 0);
    net = !net;
  }

(* ---- decision-cost probe -------------------------------------------- *)

type decide = { hub_us : float; median_us : float; max_degree : int }

(* Time the read-only decision process for [prefix] at the top-1%-degree
   routers and at (up to 100) median-degree routers of a finished run. *)
let decide_probe net prefix =
  let g = Network.graph net in
  let n = Network.num_routers net in
  let by_degree = Array.init n (fun i -> (Rfd.Graph.degree g i, i)) in
  Array.sort (fun (da, a) (db, b) -> if da <> db then compare db da else compare a b) by_degree;
  (* Doubling batches until one lasts 0.2 ms keeps clock cost out. *)
  let per_call_us id =
    let r = Network.router net id in
    let rec batch reps =
      let t0 = now () in
      for _ = 1 to reps do
        ignore (Sys.opaque_identity (Router.recompute_best r prefix))
      done;
      let dt = now () -. t0 in
      if dt >= 2e-4 then dt /. float_of_int reps *. 1e6 else batch (2 * reps)
    in
    batch 16
  in
  let hubs = Array.sub by_degree 0 (max 1 (n / 100)) |> Array.to_list in
  let median_degree = fst by_degree.(n / 2) in
  let typical =
    Array.to_list by_degree
    |> List.filter (fun (d, _) -> d = median_degree)
    |> List.filteri (fun i _ -> i < 100)
  in
  let probe set = median (List.map (fun (_, id) -> per_call_us id) set) in
  { hub_us = probe hubs; median_us = probe typical; max_degree = fst by_degree.(0) }

(* Mean prefixes per router (Loc-RIB or any RIB-In) and their total. *)
let rib_prefixes net =
  let n = Network.num_routers net in
  let total = ref 0 in
  for i = 0 to n - 1 do
    total := !total + List.length (Router.known_prefixes (Network.router net i))
  done;
  (float_of_int !total /. float_of_int n, !total)

(* Live heap words and router-prefix entries once [scenario] has converged
   (at the observe callback, right after a full major collection). *)
let rib_at_settle scenario =
  let at = ref (0, 0) in
  let observe net =
    Gc.full_major ();
    at := ((Gc.stat ()).Gc.live_words, snd (rib_prefixes net))
  in
  ignore (Runner.run ~observe scenario : Runner.result);
  !at
