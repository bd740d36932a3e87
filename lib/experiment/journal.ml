type outcome =
  | Result of Runner.result
  | Crashed of string
  | Timed_out of { attempts : int; deadline : float }

let header = "rfd-journal/1"

(* Scenarios, results and the outcome variants above are closure-free data
   (records, arrays, variants), so Marshal round-trips them exactly —
   float bits included — and serializes equal values to equal bytes, which
   is what makes both the job key and the line digest stable across
   processes of the same build. *)
let marshal v = Marshal.to_string v []

let job_key scenario ~seed ~pulses =
  Digest.to_hex (Digest.string (marshal (scenario, seed, pulses)))

let to_hex s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then None
  else
    let digit c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | _ -> None
    in
    let bytes = Bytes.create (n / 2) in
    let ok = ref true in
    for i = 0 to (n / 2) - 1 do
      match (digit s.[2 * i], digit s.[(2 * i) + 1]) with
      | Some hi, Some lo -> Bytes.set bytes i (Char.chr ((hi lsl 4) lor lo))
      | _ -> ok := false
    done;
    if !ok then Some (Bytes.to_string bytes) else None

(* The digest covers the key too, and [of_hex] reads only the lowercase
   digits [to_hex] writes, so every bit of a line is checked. *)
let line_digest ~key payload = Digest.to_hex (Digest.string (key ^ " " ^ payload))

let render_line ~key outcome =
  let payload = marshal outcome in
  Printf.sprintf "%s %s %s\n" key (line_digest ~key payload) (to_hex payload)

type writer = { fd : Unix.file_descr; mutable closed : bool }

let write_fully fd s =
  let bytes = Bytes.of_string s in
  let n = Bytes.length bytes in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd bytes !written (n - !written)
  done

let create path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644 in
  (if (Unix.fstat fd).Unix.st_size = 0 then begin
     write_fully fd (header ^ "\n");
     Unix.fsync fd
   end);
  { fd; closed = false }

(* One [write] of one line, then fsync: the line is durable before the
   caller moves on, and a crash between lines never leaves more than a
   single torn tail for [load] to skip. *)
let append w ~key outcome =
  if w.closed then invalid_arg "Journal.append: writer is closed";
  write_fully w.fd (render_line ~key outcome);
  Unix.fsync w.fd

let close w =
  if not w.closed then begin
    w.closed <- true;
    Unix.close w.fd
  end

type loaded = { entries : (string, outcome) Hashtbl.t; corrupt : int }

let parse_line line =
  match String.split_on_char ' ' line with
  | [ key; digest; hex ] -> (
      match of_hex hex with
      | Some payload when line_digest ~key payload = digest -> (
          match (Marshal.from_string payload 0 : outcome) with
          | outcome -> Some (key, outcome)
          | exception _ -> None)
      | Some _ | None -> None)
  | _ -> None

(* Raw variant of [load] for compaction: keeps the original line bytes per
   key (newest wins) and the order keys first appeared, so the compacted
   file is deterministic and never re-serializes payloads. *)
let scan_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      (match input_line ic with
      | first when first = header -> ()
      | first ->
          failwith
            (Printf.sprintf "Journal.compact: %s is not a %s file (header %S)"
               path header first)
      | exception End_of_file ->
          failwith (Printf.sprintf "Journal.compact: %s is empty" path));
      let latest = Hashtbl.create 64 in
      let order = ref [] in
      let duplicates = ref 0 in
      let corrupt = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.length line > 0 then
             match parse_line line with
             | Some (key, _) ->
                 if Hashtbl.mem latest key then incr duplicates
                 else order := key :: !order;
                 Hashtbl.replace latest key line
             | None -> incr corrupt
         done
       with End_of_file -> ());
      (List.rev !order, latest, !duplicates, !corrupt))

type compaction = { kept : int; dropped_duplicates : int; dropped_corrupt : int }

(* Rewrite-to-temp + rename: the original file stays intact (and loadable)
   until the atomic rename, so a crash mid-compaction loses nothing. The
   temp file is fsync'd before the rename and the directory after it, so
   the swap itself survives a power cut. *)
let compact path =
  let order, latest, dropped_duplicates, dropped_corrupt = scan_raw path in
  let tmp = path ^ ".compact.tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_fully fd (header ^ "\n");
      List.iter (fun key -> write_fully fd (Hashtbl.find latest key ^ "\n")) order;
      Unix.fsync fd);
  Unix.rename tmp path;
  (* Persist the rename itself (the directory entry); best-effort — some
     filesystems refuse fsync on a directory fd. *)
  (match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | dirfd ->
      (try Unix.fsync dirfd with Unix.Unix_error _ -> ());
      Unix.close dirfd
  | exception Unix.Unix_error _ -> ());
  { kept = List.length order; dropped_duplicates; dropped_corrupt }

type check_report = {
  checked_valid : int;
  checked_duplicates : int;
  checked_corrupt : int;
  checked_torn : bool;
}

(* Read-only verification: digest-check every line without building any
   outcome values or touching the file. A final line with no trailing
   newline that also fails to parse is a torn SIGKILL tail — expected,
   benign, reported separately; an unparsable line anywhere else means
   real corruption. *)
let check path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let size = in_channel_length ic in
      let contents = really_input_string ic size in
      (match String.index_opt contents '\n' with
      | Some i when String.sub contents 0 i = header -> ()
      | Some _ | None ->
          failwith
            (Printf.sprintf "Journal.check: %s is not a %s file" path header));
      let terminated = size > 0 && contents.[size - 1] = '\n' in
      let lines = String.split_on_char '\n' contents in
      let body =
        match lines with
        | _header :: rest -> rest
        | [] -> []
      in
      (* split_on_char leaves a trailing "" for a terminated file and the
         torn fragment (if any) otherwise. *)
      let n_body = List.length body in
      let seen = Hashtbl.create 64 in
      let valid = ref 0 in
      let duplicates = ref 0 in
      let corrupt = ref 0 in
      let torn = ref false in
      List.iteri
        (fun i line ->
          let last = i = n_body - 1 in
          if String.length line = 0 then ()
          else
            match parse_line line with
            | Some (key, _) ->
                if Hashtbl.mem seen key then incr duplicates
                else Hashtbl.replace seen key ();
                incr valid
            | None -> if last && not terminated then torn := true else incr corrupt)
        body;
      {
        checked_valid = !valid;
        checked_duplicates = !duplicates;
        checked_corrupt = !corrupt;
        checked_torn = !torn;
      })

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      (match input_line ic with
      | first when first = header -> ()
      | first ->
          failwith
            (Printf.sprintf "Journal.load: %s is not a %s file (header %S)" path
               header first)
      | exception End_of_file ->
          failwith (Printf.sprintf "Journal.load: %s is empty" path));
      let entries = Hashtbl.create 64 in
      let corrupt = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.length line > 0 then
             match parse_line line with
             | Some (key, outcome) -> Hashtbl.replace entries key outcome
             | None -> incr corrupt
         done
       with End_of_file -> ());
      { entries; corrupt = !corrupt })
