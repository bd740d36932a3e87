module Sim = Rfd_engine.Sim
module Rng = Rfd_engine.Rng
module Damper = Rfd_damping.Damper
module History = Rfd_damping.History
module Reuse_index = Rfd_damping.Reuse_index

type desired = D_announce of Route.t | D_withdraw

type entry = {
  mutable route : Route.t option;
  damper : Damper.t option;
  mutable reuse_pending : bool; (* a reuse timer is outstanding for this entry *)
  mutable wheel_slot : int; (* bucket holding this entry while reuse_pending in Tick mode *)
  mutable last_rc : Root_cause.t option;
}

type pending_out = { desired : desired; rc : Root_cause.t option }

type peer_state = {
  peer_id : int;
  mutable send : (Update.t -> unit) option;
  mrai_interval : float; (* jittered once per session *)
  (* Per-prefix session state lives in dense int-indexed tables (prefix
     ids are contiguous): O(1) unhashed lookups on the RIB hot paths and
     ascending iteration order for free. *)
  rib_in : entry Prefix_table.t;
  rib_out : Route.t Prefix_table.t; (* absent = withdrawn / never sent *)
  mrai_deadline : float Prefix_table.t;
  pending : pending_out Prefix_table.t;
  flush_scheduled : Sim.event_id Prefix_table.t;
      (* armed flush timer per prefix, cancellable on session failure *)
  rcn_history : Root_cause.t History.t option;
      (* Some iff this router damps in RCN mode — the only consumer *)
  mutable peer_deadline : float; (* shared MRAI deadline in per-peer mode *)
  mutable up : bool;
}

(* RFC 2439 §4.8.6 reuse list (Config.Tick mode): suppressed entries are
   bucketed by absolute tick number [k] (firing at [k *. tick]) instead of
   each arming its own simulator timer. One armed event per occupied slot,
   one table lookup per suppression; a re-charged entry migrates to the
   slot covering its new reuse instant, and a bucket emptied by migration
   cancels its event instead of firing a pointless re-check. *)
type bucket = {
  b_event : Sim.event_id;
  mutable b_items : (peer_state * Prefix.t * entry) list; (* reverse insertion order *)
}

type wheel = {
  w_index : Reuse_index.t;
  w_tick : float;
  w_lambda : float; (* decay rate of the router's damping params *)
  w_slots : (int, bucket) Hashtbl.t;
}

type t = {
  sim : Sim.t;
  id : int;
  policy : Policy.t;
  config : Config.t;
  damping : Rfd_damping.Params.t option;
  wheel : wheel option; (* Some iff damping is on and reuse_mode is Tick *)
  decay_cache : Damper.cache option; (* shared across this router's dampers *)
  hooks : Hooks.t;
  rng : Rng.t;
  table : Route.table; (* per-network intern table, shared across routers *)
  mutable peers : peer_state array; (* ascending peer_id; dense, no hashing *)
  loc_rib : (int option * Route.t) Prefix_table.t; (* learned-from peer, route *)
  originated : unit Prefix_table.t;
  mutable rc_seq : int;
  (* Reuse-timer accounting, the cost centre the tick wheel optimises:
     simulator events spent on reuse scheduling (fired per-entry timers in
     Exact mode, fired wheel slots in Tick mode) and how many such events
     sit in the simulator heap at once. *)
  mutable timer_events : int;
  mutable timer_live : int;
  mutable timer_peak : int;
}

let create ?table ~sim ~id ~policy ~config ~damping ~rng ~hooks () =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Router.create: " ^ msg));
  (match damping with
  | Some params -> (
      match Rfd_damping.Params.validate params with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Router.create: damping params: " ^ msg))
  | None -> ());
  let wheel =
    match (damping, config.Config.reuse_mode) with
    | Some params, Config.Tick tick ->
        Some
          {
            w_index = Reuse_index.create ~tick params;
            w_tick = tick;
            w_lambda = Rfd_damping.Params.lambda params;
            w_slots = Hashtbl.create 16;
          }
    | Some _, Config.Exact | None, _ -> None
  in
  {
    sim;
    id;
    policy;
    config;
    damping;
    wheel;
    decay_cache = Option.map (fun _ -> Damper.cache ()) damping;
    hooks;
    rng;
    table = (match table with Some tbl -> tbl | None -> Route.create_table ());
    peers = [||];
    loc_rib = Prefix_table.create ~hint:config.Config.prefix_table_hint;
    originated = Prefix_table.create ~hint:4;
    rc_seq = 0;
    timer_events = 0;
    timer_live = 0;
    timer_peak = 0;
  }

let id t = t.id
let damping_params t = t.damping

(* Peer sessions live in a dense array sorted by peer id: lookups are an
   O(log degree) binary search and the decision process iterates the array
   directly (ascending, as the id tie-break requires) — no hashing, no
   per-peer boxing beyond the session record itself. The search is a
   top-level function so a lookup allocates nothing but its result. *)
let rec search_peer peers peer lo hi =
  if lo > hi then None
  else begin
    let mid = (lo + hi) / 2 in
    let ps = peers.(mid) in
    if ps.peer_id = peer then Some ps
    else if ps.peer_id < peer then search_peer peers peer (mid + 1) hi
    else search_peer peers peer lo (mid - 1)
  end

let find_peer t peer = search_peer t.peers peer 0 (Array.length t.peers - 1)

let connect t ~peer ~send =
  if peer = t.id then invalid_arg "Router.connect: cannot peer with self";
  if find_peer t peer <> None then
    invalid_arg (Printf.sprintf "Router.connect: duplicate peer %d" peer);
  let lo, hi = t.config.Config.mrai_jitter in
  let hint = t.config.Config.prefix_table_hint in
  let ps =
    {
      peer_id = peer;
      send = Some send;
      mrai_interval = t.config.Config.mrai *. Rng.uniform t.rng ~lo ~hi;
      rib_in = Prefix_table.create ~hint;
      rib_out = Prefix_table.create ~hint;
      mrai_deadline = Prefix_table.create ~hint;
      pending = Prefix_table.create ~hint;
      flush_scheduled = Prefix_table.create ~hint;
      rcn_history =
        (* Only RCN-mode damping routers consult the history; everywhere
           else the (capacity-sized) table would be dead weight per session. *)
        (if t.config.Config.damping_mode = Config.Rcn && t.damping <> None then
           Some (History.create ~capacity:t.config.Config.rcn_history ())
         else None);
      peer_deadline = 0.;
      up = true;
    }
  in
  let n = Array.length t.peers in
  let pos = ref n in
  (* Insertion point in the sorted array. *)
  for i = n - 1 downto 0 do
    if t.peers.(i).peer_id > peer then pos := i
  done;
  let peers = Array.make (n + 1) ps in
  Array.blit t.peers 0 peers 0 !pos;
  Array.blit t.peers !pos peers (!pos + 1) (n - !pos);
  t.peers <- peers

let peer_ids t = Array.fold_right (fun ps acc -> ps.peer_id :: acc) t.peers []

let peer_state t peer =
  match find_peer t peer with
  | Some ps -> ps
  | None -> invalid_arg (Printf.sprintf "Router %d: unknown peer %d" t.id peer)

let fresh_rc t ~status = (
  t.rc_seq <- t.rc_seq + 1;
  Root_cause.origin_event ~node:t.id ~status ~seq:t.rc_seq)

let fresh_link_rc t ~peer ~status =
  t.rc_seq <- t.rc_seq + 1;
  Root_cause.make ~link:(t.id, peer) ~status ~seq:t.rc_seq

(* ------------------------------------------------------------------ *)
(* Decision process                                                    *)

let self_route t prefix = Route.make_interned t.table ~prefix ~path:As_path.empty

(* (preference, path length, peer id) — bigger pref wins, then shorter
   path, then lower peer id. Ascending peer iteration makes the id
   tie-break implicit via strict improvement. *)
let better_candidate ~pref_a ~len_a ~peer_a ~pref_b ~len_b ~peer_b =
  pref_a > pref_b
  || (pref_a = pref_b && (len_a < len_b || (len_a = len_b && peer_a < peer_b)))

(* The route [ps] offers for [prefix] if the decision process may use it:
   session up, not withdrawn, not suppressed. Returns the entry's own
   option, so the check allocates nothing. *)
let candidate ps prefix =
  if not ps.up then None
  else
    match Prefix_table.find_opt ps.rib_in prefix with
    | Some { route = Some _ as route; damper = Some damper; _ } ->
        if Damper.suppressed damper then None else route
    | Some { route; damper = None; _ } -> route
    | Some { route = None; _ } | None -> None

let preference t peer route = Policy.import_preference t.policy ~me:t.id ~from_peer:peer ~route

(* The one full scan: rank every peer's candidate. *)
let compute_best t prefix =
  if Prefix_table.mem t.originated prefix then Some (None, self_route t prefix)
  else begin
    let best = ref None in
    Array.iter
      (fun ps ->
        match candidate ps prefix with
        | None -> ()
        | Some route -> (
            let peer = ps.peer_id in
            let pref = preference t peer route in
            let len = Route.path_length route in
            match !best with
            | None -> best := Some (peer, route, pref, len)
            | Some (bp, _, bpref, blen) ->
                if
                  better_candidate ~pref_a:pref ~len_a:len ~peer_a:peer ~pref_b:bpref ~len_b:blen
                    ~peer_b:bp
                then best := Some (peer, route, pref, len)))
      t.peers;
    match !best with None -> None | Some (peer, route, _, _) -> Some (Some peer, route)
  end

(* Incremental selection after [ps]'s candidate for [prefix] changed and no
   other peer's did. Every other candidate still ranks below the Loc-RIB
   winner, so the new best is the better of the winner and [ps] — unless
   [ps] was the winner and got worse or went away, when only the full scan
   can find the runner-up. The ranking is a strict total order, so this
   picks exactly what [compute_best] would. *)
let select t ps prefix old_best =
  let peer = ps.peer_id in
  match (old_best, candidate ps prefix) with
  | Some (None, _), _ ->
      (* Self-originated: the self route wins whatever peers offer. Only
         [originate] and [withdraw_prefix] change that, and they rescan. *)
      old_best
  | None, None -> None
  | None, Some route -> Some (Some peer, route)
  | Some (Some winner, _), None -> if winner = peer then compute_best t prefix else old_best
  | Some (Some winner, wroute), Some route ->
      let pref = preference t peer route and len = Route.path_length route in
      let wpref = preference t winner wroute and wlen = Route.path_length wroute in
      if winner = peer then
        if
          better_candidate ~pref_a:wpref ~len_a:wlen ~peer_a:peer ~pref_b:pref ~len_b:len
            ~peer_b:peer
        then compute_best t prefix
        else Some (Some peer, route)
      else if
        better_candidate ~pref_a:pref ~len_a:len ~peer_a:peer ~pref_b:wpref ~len_b:wlen
          ~peer_b:winner
      then Some (Some peer, route)
      else old_best

let best_equal a b =
  match (a, b) with
  | None, None -> true
  | Some (pa, ra), Some (pb, rb) -> pa = pb && Route.equal ra rb
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Output path: RIB-Out diffing + MRAI                                 *)

let dispatch t ps msg =
  let now = Sim.now t.sim in
  t.hooks.Hooks.on_send ~time:now ~src:t.id ~dst:ps.peer_id msg;
  match ps.send with
  | Some send -> send msg
  | None -> invalid_arg (Printf.sprintf "Router %d: peer %d has no transport" t.id ps.peer_id)

let mrai_hook t ps prefix action =
  t.hooks.Hooks.on_mrai ~time:(Sim.now t.sim) ~router:t.id ~peer:ps.peer_id ~prefix action

let drop_pending t ps prefix action =
  if Prefix_table.mem ps.pending prefix then begin
    Prefix_table.remove ps.pending prefix;
    mrai_hook t ps prefix action
  end

let send_now t ps prefix desired rc =
  let now = Sim.now t.sim in
  drop_pending t ps prefix Hooks.Mrai_superseded;
  match desired with
  | D_withdraw ->
      Prefix_table.remove ps.rib_out prefix;
      dispatch t ps (Update.withdraw ?rc prefix)
      (* withdrawals do not restart the MRAI *)
  | D_announce route ->
      let rel_pref =
        match Prefix_table.find_opt ps.rib_out prefix with
        | Some prev ->
            let c = Int.compare (Route.path_length route) (Route.path_length prev) in
            Some
              (if c < 0 then Update.Better
               else if c > 0 then Update.Worse
               else Update.Same_pref)
        | None -> None
      in
      Prefix_table.set ps.rib_out prefix route;
      dispatch t ps (Update.announce ?rc ?rel_pref route);
      if t.config.Config.mrai > 0. then begin
        let deadline = now +. ps.mrai_interval in
        if t.config.Config.mrai_per_peer then ps.peer_deadline <- deadline
        else Prefix_table.set ps.mrai_deadline prefix deadline
      end

(* [emit] reconciles the desired advertisement for (peer, prefix) with what
   was last sent, honouring the MRAI. Returns 1 when a message was sent or
   queued, 0 when the peer is already up to date. *)
let rec emit t ps prefix desired rc =
  let same =
    match (desired, Prefix_table.find_opt ps.rib_out prefix) with
    | D_withdraw, None -> true
    | D_announce r, Some r' -> Route.equal r r'
    | D_withdraw, Some _ | D_announce _, None -> false
  in
  if same then begin
    (* A pending older update is superseded by "nothing to do". *)
    drop_pending t ps prefix Hooks.Mrai_superseded;
    0
  end
  else begin
    let now = Sim.now t.sim in
    let deadline =
      if t.config.Config.mrai_per_peer then ps.peer_deadline
      else
        match Prefix_table.find_opt ps.mrai_deadline prefix with Some d -> d | None -> 0.
    in
    let rate_limited =
      match desired with
      | D_withdraw -> t.config.Config.withdrawal_rate_limiting
      | D_announce _ -> true
    in
    if t.config.Config.mrai = 0. || (not rate_limited) || now >= deadline then begin
      send_now t ps prefix desired rc;
      1
    end
    else begin
      let fresh = not (Prefix_table.mem ps.pending prefix) in
      Prefix_table.set ps.pending prefix { desired; rc };
      if fresh then mrai_hook t ps prefix Hooks.Mrai_queued;
      if not (Prefix_table.mem ps.flush_scheduled prefix) then begin
        let ev = Sim.schedule_at t.sim ~time:deadline (fun _ -> flush t ps prefix) in
        Prefix_table.set ps.flush_scheduled prefix ev;
        mrai_hook t ps prefix Hooks.Flush_armed
      end;
      1
    end
  end

and flush t ps prefix =
  Prefix_table.remove ps.flush_scheduled prefix;
  mrai_hook t ps prefix Hooks.Flush_fired;
  if ps.up then
    match Prefix_table.find_opt ps.pending prefix with
    | None -> ()
    | Some { desired; rc } ->
        Prefix_table.remove ps.pending prefix;
        mrai_hook t ps prefix Hooks.Mrai_sent;
        ignore (emit t ps prefix desired rc)

(* Install [new_best] as the Loc-RIB entry for [prefix]; on a change,
   reconcile every peer. Returns the number of updates sent or queued. *)
let install t prefix ~trigger_rc old_best new_best =
  if best_equal old_best new_best then 0
  else begin
    (match new_best with
    | Some b -> Prefix_table.set t.loc_rib prefix b
    | None -> Prefix_table.remove t.loc_rib prefix);
    t.hooks.Hooks.on_best_change ~time:(Sim.now t.sim) ~router:t.id ~prefix
      ~best:(Option.map snd new_best);
    let emitted = ref 0 in
    (* The announcement carries this router's AS prepended; it is built
       (and its path interned) at the first peer that gets it, never for an
       all-withdraw export, so intern ids are assigned in a fixed order. *)
    let announce = ref D_withdraw in
    for i = 0 to Array.length t.peers - 1 do
      let ps = t.peers.(i) in
      let peer = ps.peer_id in
      if ps.up then begin
        let desired =
          match new_best with
          | None -> D_withdraw
          | Some (learned_from, route) ->
              if
                Policy.export_allowed t.policy ~me:t.id ~learned_from ~to_peer:peer ~route
                && not (As_path.contains (Route.path route) peer)
              then begin
                (match !announce with
                | D_announce _ -> ()
                | D_withdraw -> announce := D_announce (Route.prepend_interned t.table t.id route));
                !announce
              end
              else D_withdraw
        in
        emitted := !emitted + emit t ps prefix desired trigger_rc
      end
    done;
    !emitted
  end

(* Run the decision process for [prefix] after [ps]'s candidate changed. *)
let decision t ps prefix ~trigger_rc =
  let old_best = Prefix_table.find_opt t.loc_rib prefix in
  install t prefix ~trigger_rc old_best (select t ps prefix old_best)

(* Origination changes no peer's candidate: rescan. *)
let rescan t prefix ~trigger_rc =
  install t prefix ~trigger_rc (Prefix_table.find_opt t.loc_rib prefix) (compute_best t prefix)

(* ------------------------------------------------------------------ *)
(* Damping                                                             *)

let timer_armed t =
  t.timer_live <- t.timer_live + 1;
  if t.timer_live > t.timer_peak then t.timer_peak <- t.timer_live

let timer_fired t =
  t.timer_events <- t.timer_events + 1;
  t.timer_live <- t.timer_live - 1

let rec reuse_fire t ps prefix entry =
  timer_fired t;
  entry.reuse_pending <- false;
  match entry.damper with
  | Some damper when Damper.suppressed damper -> (
      let now = Sim.now t.sim in
      match Damper.try_reuse damper ~now with
      | `Not_yet time ->
          entry.reuse_pending <- true;
          timer_armed t;
          ignore
            (Sim.schedule_at t.sim ~time:(time +. 1e-6) (fun _ -> reuse_fire t ps prefix entry))
      | `Reused ->
          let emitted = decision t ps prefix ~trigger_rc:entry.last_rc in
          t.hooks.Hooks.on_reuse ~time:now ~router:t.id ~peer:ps.peer_id ~prefix
            ~noisy:(emitted > 0))
  | Some _ | None -> ()

(* ---- Tick-mode reuse wheel ---- *)

let wheel_slot_time w slot = float_of_int slot *. w.w_tick

(* First grid slot at or after [time]. *)
let wheel_slot_after w time = int_of_float (Float.ceil (time /. w.w_tick))

(* The slot whose boundary is the first grid point at or after the exact
   reuse instant. Decaying the penalty forward to the next boundary before
   consulting the index table keeps the quantisation error inside one tick
   regardless of where [now] falls between boundaries. *)
let wheel_slot_for w damper ~now =
  let next = wheel_slot_after w now in
  let dt = wheel_slot_time w next -. now in
  let penalty = Damper.penalty damper ~now in
  let penalty = if dt > 0. then penalty *. exp (-.w.w_lambda *. dt) else penalty in
  next + Reuse_index.ticks_to_reuse w.w_index ~penalty

let rec wheel_park t w ps prefix entry ~slot =
  (match Hashtbl.find_opt w.w_slots slot with
  | Some b -> b.b_items <- (ps, prefix, entry) :: b.b_items
  | None ->
      timer_armed t;
      let time = Float.max (wheel_slot_time w slot) (Sim.now t.sim) in
      let ev = Sim.schedule_at t.sim ~time (fun _ -> wheel_fire t w slot) in
      Hashtbl.replace w.w_slots slot { b_event = ev; b_items = [ (ps, prefix, entry) ] });
  entry.reuse_pending <- true;
  entry.wheel_slot <- slot

and wheel_fire t w slot =
  match Hashtbl.find_opt w.w_slots slot with
  | None -> ()
  | Some bucket ->
      timer_fired t;
      Hashtbl.remove w.w_slots slot;
      let now = Sim.now t.sim in
      List.iter
        (fun (ps, prefix, entry) ->
          entry.reuse_pending <- false;
          match entry.damper with
          | Some damper when Damper.suppressed damper -> (
              match Damper.try_reuse damper ~now with
              | `Not_yet time ->
                  (* Residual quantisation slack (the exact instant fell just
                     past this boundary): move to the slot covering the real
                     reuse time, strictly after this one so the wheel always
                     drains. *)
                  wheel_park t w ps prefix entry
                    ~slot:(max (slot + 1) (wheel_slot_after w time))
              | `Reused ->
                  let emitted = decision t ps prefix ~trigger_rc:entry.last_rc in
                  t.hooks.Hooks.on_reuse ~time:now ~router:t.id ~peer:ps.peer_id ~prefix
                    ~noisy:(emitted > 0))
          | Some _ | None -> ())
        (List.rev bucket.b_items)

(* A fresh charge on a queued entry pushed its reuse instant out: migrate
   the entry to the slot covering the new instant (RFC 2439's "move to
   another reuse list"). A bucket emptied by migration cancels its event
   rather than firing a pointless re-check. *)
let wheel_postpone t w ps prefix entry damper =
  let slot = wheel_slot_for w damper ~now:(Sim.now t.sim) in
  if slot <> entry.wheel_slot then begin
    (match Hashtbl.find_opt w.w_slots entry.wheel_slot with
    | Some b ->
        b.b_items <- List.filter (fun (_, _, e) -> e != entry) b.b_items;
        if b.b_items = [] then begin
          Sim.cancel t.sim b.b_event;
          Hashtbl.remove w.w_slots entry.wheel_slot;
          t.timer_live <- t.timer_live - 1
        end
    | None -> ());
    wheel_park t w ps prefix entry ~slot
  end

let schedule_reuse t ps prefix entry =
  if not entry.reuse_pending then begin
    match entry.damper with
    | None -> ()
    | Some damper -> (
        let now = Sim.now t.sim in
        match t.wheel with
        | Some w ->
            let slot = wheel_slot_for w damper ~now in
            wheel_park t w ps prefix entry ~slot;
            t.hooks.Hooks.on_reuse_schedule ~time:now ~router:t.id ~peer:ps.peer_id ~prefix
              ~at:(wheel_slot_time w slot)
        | None ->
            entry.reuse_pending <- true;
            timer_armed t;
            let time = Damper.reuse_time damper ~now +. 1e-6 in
            ignore (Sim.schedule_at t.sim ~time (fun _ -> reuse_fire t ps prefix entry));
            t.hooks.Hooks.on_reuse_schedule ~time:now ~router:t.id ~peer:ps.peer_id ~prefix
              ~at:time)
  end

(* Apply a damping event to an entry. [count] is false when the RCN or
   selective filter decided this update must not charge the penalty. *)
let apply_damping t ps prefix entry event ~count =
  if t.damping <> None && count then
    match entry.damper with
    | None -> ()
    | Some damper ->
        let now = Sim.now t.sim in
        let transition = Damper.record damper ~now event in
        t.hooks.Hooks.on_penalty ~time:now ~router:t.id ~peer:ps.peer_id ~prefix
          ~penalty:(Damper.penalty damper ~now);
        (match transition with
        | `Suppressed ->
            t.hooks.Hooks.on_suppress ~time:now ~router:t.id ~peer:ps.peer_id ~prefix;
            schedule_reuse t ps prefix entry
        | `Ok -> (
            (* Charging an already-suppressed entry postpones its reuse. In
               Exact mode the outstanding timer re-checks and re-schedules
               itself when it fires; in Tick mode the entry migrates to its
               new slot immediately. *)
            match t.wheel with
            | Some w when entry.reuse_pending && Damper.suppressed damper ->
                wheel_postpone t w ps prefix entry damper
            | Some _ | None -> ()))

let new_entry t =
  let damper = Option.map (Damper.create ?cache:t.decay_cache) t.damping in
  { route = None; damper; reuse_pending = false; wheel_slot = 0; last_rc = None }

let find_or_create_entry t ps prefix =
  match Prefix_table.find_opt ps.rib_in prefix with
  | Some entry -> (entry, false)
  | None ->
      let entry = new_entry t in
      Prefix_table.set ps.rib_in prefix entry;
      (entry, true)

(* ------------------------------------------------------------------ *)
(* Input path                                                          *)

(* In RCN mode every received update runs through the per-peer root-cause
   history; the result decides whether the damping penalty is charged. *)
let rc_filter _t ps rc =
  match ps.rcn_history with
  | Some history -> (
      (* The history exists iff this router damps in RCN mode. *)
      match rc with
      | Some rc -> History.observe history rc = `New
      | None -> true)
  | None -> true

(* In RCN mode the penalty models the root-cause flap itself, not the local
   update type ("each route flap — not each update — increases the damping
   penalty"): a down event charges the withdrawal penalty, an up event the
   re-announcement penalty, whatever shape the locally received update
   takes. *)
let damping_event t ~rc ~local =
  match (t.config.Config.damping_mode, rc) with
  | Config.Rcn, Some { Root_cause.status = Root_cause.Link_down; _ } -> Damper.Withdrawal
  | Config.Rcn, Some { Root_cause.status = Root_cause.Link_up; _ } -> Damper.Reannouncement
  | (Config.Rcn | Config.Plain | Config.Selective), _ -> local

let handle_withdraw t ps prefix ~rc ~count =
  match Prefix_table.find_opt ps.rib_in prefix with
  | Some ({ route = Some _; _ } as entry) ->
      entry.route <- None;
      entry.last_rc <- rc;
      apply_damping t ps prefix entry (damping_event t ~rc ~local:Damper.Withdrawal) ~count;
      ignore (decision t ps prefix ~trigger_rc:rc)
  | Some { route = None; _ } | None ->
      (* Spurious withdrawal: no state change, no penalty (RFC 2439). *)
      ()

let handle_announce t ps route ~rc ~rel_pref ~count =
  let prefix = Route.prefix route in
  let entry, created = find_or_create_entry t ps prefix in
  let classification =
    if created then `First
    else
      match entry.route with
      | None -> `Event Damper.Reannouncement
      | Some prev when Route.equal prev route -> `Duplicate
      | Some _ -> `Event Damper.Attribute_change
  in
  match classification with
  | `Duplicate -> ()
  | `First ->
      entry.route <- Some route;
      entry.last_rc <- rc;
      ignore (decision t ps prefix ~trigger_rc:rc)
  | `Event event ->
      entry.route <- Some route;
      entry.last_rc <- rc;
      let count =
        count
        &&
        match (t.config.Config.damping_mode, event, rel_pref) with
        | Config.Selective, Damper.Attribute_change, Some Update.Worse ->
            (* The sender flagged this as a monotonically worse exploration
               step; the selective-damping baseline skips the penalty. *)
            false
        | _ -> true
      in
      apply_damping t ps prefix entry (damping_event t ~rc ~local:event) ~count;
      ignore (decision t ps prefix ~trigger_rc:rc)

let receive t ~from_peer update =
  let ps = peer_state t from_peer in
  if ps.up then begin
    let rc = Update.rc update in
    let count = rc_filter t ps rc in
    match update with
    | Update.Withdraw { prefix; rc } -> handle_withdraw t ps prefix ~rc ~count
    | Update.Announce { route; rc; rel_pref } ->
        if As_path.contains (Route.path route) t.id then
          (* Receiver-side loop detection: treat as withdrawal. *)
          handle_withdraw t ps (Route.prefix route) ~rc ~count
        else handle_announce t ps route ~rc ~rel_pref ~count
  end

(* ------------------------------------------------------------------ *)
(* Local origination                                                   *)

let originate t prefix =
  if not (Prefix_table.mem t.originated prefix) then begin
    Prefix_table.set t.originated prefix ();
    let rc = fresh_rc t ~status:Root_cause.Link_up in
    ignore (rescan t prefix ~trigger_rc:(Some rc))
  end

let withdraw_prefix t prefix =
  if Prefix_table.mem t.originated prefix then begin
    Prefix_table.remove t.originated prefix;
    let rc = fresh_rc t ~status:Root_cause.Link_down in
    ignore (rescan t prefix ~trigger_rc:(Some rc))
  end

let originates t prefix = Prefix_table.mem t.originated prefix

(* ------------------------------------------------------------------ *)
(* Session flaps                                                       *)

let peer_down t ~peer =
  let ps = peer_state t peer in
  if ps.up then begin
    ps.up <- false;
    (* Tear down the whole output path for the session: parked updates are
       dropped, their flush timers cancelled (a stale timer firing at an
       obsolete deadline would flush post-restore updates early, violating
       the MRAI), and both MRAI deadline forms reset so the restored
       session starts with a fresh rate-limit budget. *)
    let parked = Prefix_table.fold (fun prefix _ acc -> prefix :: acc) ps.pending [] in
    List.iter
      (fun prefix -> drop_pending t ps prefix Hooks.Mrai_cancelled)
      (List.sort Prefix.compare parked);
    let armed =
      Prefix_table.fold (fun prefix ev acc -> (prefix, ev) :: acc) ps.flush_scheduled []
    in
    List.iter
      (fun (prefix, ev) ->
        Sim.cancel t.sim ev;
        Prefix_table.remove ps.flush_scheduled prefix;
        mrai_hook t ps prefix Hooks.Flush_cancelled)
      (List.sort (fun (a, _) (b, _) -> Prefix.compare a b) armed);
    Prefix_table.reset ps.rib_out;
    Prefix_table.reset ps.mrai_deadline;
    ps.peer_deadline <- 0.;
    let rc = fresh_link_rc t ~peer ~status:Root_cause.Link_down in
    let affected =
      Prefix_table.fold
        (fun prefix entry acc -> if entry.route <> None then prefix :: acc else acc)
        ps.rib_in []
    in
    List.iter
      (fun prefix ->
        let entry =
          match Prefix_table.find_opt ps.rib_in prefix with
          | Some entry -> entry
          | None -> assert false (* collected from rib_in just above *)
        in
        entry.route <- None;
        entry.last_rc <- Some rc;
        apply_damping t ps prefix entry Damper.Withdrawal ~count:true;
        ignore (decision t ps prefix ~trigger_rc:(Some rc)))
      (List.sort Prefix.compare affected)
  end

let peer_up t ~peer =
  let ps = peer_state t peer in
  if not ps.up then begin
    ps.up <- true;
    let rc = fresh_link_rc t ~peer ~status:Root_cause.Link_up in
    (* Re-advertise the full table to the restored session. *)
    let prefixes = Prefix_table.fold (fun prefix _ acc -> prefix :: acc) t.loc_rib [] in
    List.iter
      (fun prefix ->
        match Prefix_table.find_opt t.loc_rib prefix with
        | None -> ()
        | Some (learned_from, route) ->
            let desired =
              if
                Policy.export_allowed t.policy ~me:t.id ~learned_from ~to_peer:peer ~route
                && not (As_path.contains (Route.path route) peer)
              then D_announce (Route.prepend_interned t.table t.id route)
              else D_withdraw
            in
            ignore (emit t ps prefix desired (Some rc)))
      (List.sort Prefix.compare prefixes)
  end

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)

let best t prefix = Option.map snd (Prefix_table.find_opt t.loc_rib prefix)
let session_up t ~peer = (peer_state t peer).up

let best_peer t prefix =
  match Prefix_table.find_opt t.loc_rib prefix with
  | Some (peer, _) -> peer
  | None -> None

let rib_in_route t ~peer prefix =
  let ps = peer_state t peer in
  match Prefix_table.find_opt ps.rib_in prefix with Some { route; _ } -> route | None -> None

let entry_damper t ~peer prefix =
  let ps = peer_state t peer in
  match Prefix_table.find_opt ps.rib_in prefix with
  | Some { damper; _ } -> damper
  | None -> None

let is_suppressed t ~peer prefix =
  match entry_damper t ~peer prefix with
  | Some damper -> Damper.suppressed damper
  | None -> false

let penalty t ~peer prefix =
  match entry_damper t ~peer prefix with
  | Some damper -> Damper.penalty damper ~now:(Sim.now t.sim)
  | None -> 0.

let reuse_timer_events t = t.timer_events
let peak_reuse_timers t = t.timer_peak

let suppressed_count t =
  Array.fold_left
    (fun acc ps ->
      Prefix_table.fold
        (fun _ entry acc ->
          match entry.damper with
          | Some damper when Damper.suppressed damper -> acc + 1
          | Some _ | None -> acc)
        ps.rib_in acc)
    0 t.peers

let known_prefixes t =
  let set = Hashtbl.create 16 in
  Prefix_table.iter (fun prefix _ -> Hashtbl.replace set prefix ()) t.loc_rib;
  Prefix_table.iter (fun prefix _ -> Hashtbl.replace set prefix ()) t.originated;
  Array.iter
    (fun ps -> Prefix_table.iter (fun prefix _ -> Hashtbl.replace set prefix ()) ps.rib_in)
    t.peers;
  Hashtbl.fold (fun prefix _ acc -> prefix :: acc) set [] |> List.sort Prefix.compare

let recompute_best t prefix = Option.map snd (compute_best t prefix)

(* ------------------------------------------------------------------ *)
(* Convergence-oracle introspection                                    *)

let peer_state_activity ps =
  let reuse_timers =
    Prefix_table.fold (fun _ entry acc -> if entry.reuse_pending then acc + 1 else acc) ps.rib_in 0
  in
  {
    Oracle.in_flight = 0;
    mrai_pending = Prefix_table.length ps.pending;
    scheduled_flushes = Prefix_table.length ps.flush_scheduled;
    reuse_timers;
  }

let peer_activity t ~peer = peer_state_activity (peer_state t peer)

let activity t =
  Array.fold_left (fun acc ps -> Oracle.add acc (peer_state_activity ps)) Oracle.zero t.peers
