(** The wire front end under test: admission control, handshake policing,
    slowloris quarantine, half-open reaping into core salvage, deficit
    round-robin fairness, graceful drain — and the acceptance criterion
    made executable, a seeded 64-client chaos soak where a hostile subset
    spews garbage, tears frames, stalls, disconnects mid-command and
    reconnect-storms, while every healthy client must read a transcript
    byte-identical to a single-client run and the server must survive to
    drain within its deadline.

    Clients here are little state machines over the {e client} end of a
    sim link, speaking real frames through {!Swire} — nothing reaches the
    server except bytes, exactly as over a socket. *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Host = Ldb_ldb.Host
module Server = Ldb_ldb.Server
module Swire = Ldb_ldb.Swire
module Evloop = Ldb_ldb.Evloop
module Chan = Ldb_nub.Chan
module Faultchan = Ldb_nub.Faultchan

let check = Alcotest.check
let fib_sources = [ ("fib.c", Testkit.fib_c) ]

(* a program that dies on a fatal signal, for the salvage paths *)
let segv_sources =
  [
    ( "segv.c",
      {|
int boom(int k)
{
    static int a[4];
    a[k] = 1;
    return a[0];
}
int main(void)
{
    int n;
    n = 4000000;
    boom(n);
    return 0;
}
|}
    );
  ]

(* --- a scripted wire client --------------------------------------------------- *)

type client = {
  cl_ep : Chan.endpoint;
  cl_fc : Faultchan.t option;
  mutable cl_rx : string;
  mutable cl_seq : int;
  mutable cl_transcript : string list;  (** rendered server messages, newest first *)
  mutable cl_script : Server.command list;
  mutable cl_awaiting : bool;
  mutable cl_wait : int;  (** ticks spent awaiting the current reply *)
  mutable cl_bye_sent : bool;
  mutable cl_done : bool;
}

let make_client ?fc ep script =
  {
    cl_ep = ep;
    cl_fc = fc;
    cl_rx = "";
    cl_seq = 0;
    cl_transcript = [];
    cl_script = script;
    cl_awaiting = false;
    cl_wait = 0;
    cl_bye_sent = false;
    cl_done = false;
  }

let client_send (cl : client) (m : Swire.client_msg) : unit =
  let frame = Swire.seal ~seq:cl.cl_seq (Swire.encode_client m) in
  cl.cl_seq <- cl.cl_seq + 1;
  try Chan.send cl.cl_ep frame with Chan.Disconnected -> cl.cl_done <- true

let client_send_raw (cl : client) (bytes : string) : unit =
  try Chan.send cl.cl_ep bytes with Chan.Disconnected -> cl.cl_done <- true

(** Read and decode every server message waiting on the client's end. *)
let client_recv (cl : client) : Swire.server_msg list =
  (* age faultchan stalls (and exercise the wrapped pump path) *)
  (match cl.cl_fc with Some _ -> (Chan.pump_of cl.cl_ep) () | None -> ());
  let n = Chan.available cl.cl_ep in
  if n > 0 then begin
    cl.cl_rx <- cl.cl_rx ^ Chan.peek cl.cl_ep n;
    Chan.skip cl.cl_ep n
  end;
  let out = ref [] in
  let stop = ref false in
  while not !stop do
    match Swire.scan ~max_payload:Swire.max_server_payload cl.cl_rx with
    | Swire.S_frame { payload; used; _ } -> (
        cl.cl_rx <- String.sub cl.cl_rx used (String.length cl.cl_rx - used);
        match Swire.decode_server payload with
        | Ok m -> out := m :: !out
        | Error _ -> ())
    | Swire.S_skip { skip; _ } ->
        cl.cl_rx <- String.sub cl.cl_rx skip (String.length cl.cl_rx - skip)
    | Swire.S_need -> stop := true
  done;
  List.rev !out

(** One step of a well-behaved client: consume replies, send the next
    command when the previous one answered, say goodbye when the script
    is done, give up on a wire that stopped answering. *)
let step_healthy (cl : client) : unit =
  if not cl.cl_done then begin
    List.iter
      (fun m ->
        cl.cl_transcript <- Swire.server_msg_to_string m :: cl.cl_transcript;
        match m with
        | Swire.S_hello _ -> cl.cl_awaiting <- false
        | Swire.S_reply _ | Swire.S_refused _ ->
            cl.cl_awaiting <- false;
            cl.cl_wait <- 0
        | Swire.S_error _ -> ()
        | Swire.S_bye _ -> cl.cl_done <- true)
      (client_recv cl);
    if not cl.cl_done then
      if cl.cl_awaiting then begin
        cl.cl_wait <- cl.cl_wait + 1;
        if cl.cl_wait > 60 then begin
          (* the wire ate the command or its reply: stop waiting *)
          cl.cl_done <- true;
          try Chan.disconnect cl.cl_ep with _ -> ()
        end
      end
      else
        match cl.cl_script with
        | cmd :: rest ->
            cl.cl_script <- rest;
            cl.cl_awaiting <- true;
            cl.cl_wait <- 0;
            client_send cl (Swire.C_cmd cmd)
        | [] ->
            if not cl.cl_bye_sent then begin
              cl.cl_bye_sent <- true;
              client_send cl Swire.C_bye
            end
  end

(** The reply/refusal lines of a transcript — what must be byte-identical
    across healthy clients (hello carries the session id, bye the close
    reason; neither is part of the answers). *)
let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let answers (cl : client) : string list =
  List.filter
    (fun l -> has_prefix "ok: " l || has_prefix "refused: " l)
    (List.rev cl.cl_transcript)

let typed_lines (cl : client) : string list =
  List.filter
    (fun l ->
      has_prefix "bye:" l || has_prefix "protocol " l || has_prefix "refused: " l)
    (List.rev cl.cl_transcript)

(* --- harness ------------------------------------------------------------------ *)

let soak_script =
  [
    Server.Break_function "fib";
    Server.Continue;
    Server.Read_int "n";
    Server.Print "n";
    Server.Backtrace;
    Server.Continue;
  ]

(** A loop whose binder launches a fresh process of an image chosen per
    connection; [arch_of_conn] decides which. *)
let make_loop ?limits ~(images : (Ldb_link.Link.image * string) array)
    ~(arch_of_conn : (int, int) Hashtbl.t) () : Evloop.t =
  let sv =
    Server.create
      ~limits:{ Server.default_limits with Server.li_max_sessions = 256 }
      ()
  in
  Evloop.create ?limits sv ~bind:(fun ~conn_id ->
      let ix = match Hashtbl.find_opt arch_of_conn conn_id with Some i -> i | None -> 0 in
      let p = Host.launch_image images.(ix) in
      Server.open_session sv
        ~name:(Printf.sprintf "conn-%d" conn_id)
        ~loader_ps:p.Host.hp_loader_ps (Host.open_channel p))

(** Connect one client to the loop, registering its arch for the binder. *)
let connect ?fault ?(arch_ix = 0) (loop : Evloop.t)
    (arch_of_conn : (int, int) Hashtbl.t) (script : Server.command list) :
    client * [ `Conn of int | `Refused ] =
  let ep, io, fc = Evloop.sim_link ?fault () in
  let res = Evloop.accept loop io in
  (match res with
  | `Conn id -> Hashtbl.replace arch_of_conn id arch_ix
  | `Refused -> ());
  (make_client ?fc ep script, res)

let conn_exn = function
  | `Conn id -> id
  | `Refused -> Alcotest.fail "connection unexpectedly refused"

(** Drive a set of per-tick client steps against the loop until they all
    report done (or [max_ticks] passes). *)
let run_clients (loop : Evloop.t) (steps : (unit -> bool) list) ~(max_ticks : int) :
    int =
  let ticks = ref 0 in
  let live = ref steps in
  while !live <> [] && !ticks < max_ticks do
    live := List.filter (fun step -> step ()) !live;
    Evloop.tick loop;
    incr ticks
  done;
  !ticks

let single_arch_images arch = [| Host.build_image ~arch fib_sources |]

(** The reference transcript: one healthy client, clean link, otherwise
    the same loop machinery. *)
let wire_baseline ~(images : (Ldb_link.Link.image * string) array) ~(arch_ix : int) :
    string list =
  let arch_of_conn = Hashtbl.create 4 in
  let loop = make_loop ~images ~arch_of_conn () in
  let cl, res = connect ~arch_ix loop arch_of_conn soak_script in
  ignore (conn_exn res);
  client_send cl (Swire.C_hello { magic = Swire.version_magic });
  cl.cl_awaiting <- true;
  let ticks =
    run_clients loop
      [ (fun () -> step_healthy cl; not cl.cl_done) ]
      ~max_ticks:500
  in
  if cl.cl_done = false then Alcotest.failf "baseline client unfinished after %d ticks" ticks;
  answers cl

(* --- focused robustness tests ------------------------------------------------- *)

(** Admission control: past the cap, a connection is refused with a typed
    [Overloaded] frame before any handshake work; the same once draining. *)
let test_admission_cap () =
  let images = single_arch_images Arch.Mips in
  let arch_of_conn = Hashtbl.create 4 in
  let limits = { Evloop.default_limits with Evloop.el_max_conns = 2 } in
  let loop = make_loop ~limits ~images ~arch_of_conn () in
  let _cl1, r1 = connect loop arch_of_conn [] in
  let _cl2, r2 = connect loop arch_of_conn [] in
  ignore (conn_exn r1);
  ignore (conn_exn r2);
  let cl3, r3 = connect loop arch_of_conn [] in
  (match r3 with
  | `Refused -> ()
  | `Conn _ -> Alcotest.fail "third connection should have been refused");
  (match client_recv cl3 with
  | [ Swire.S_refused (Server.Overloaded _) ] -> ()
  | ms -> Alcotest.failf "expected one typed Overloaded, got %d messages" (List.length ms));
  check Alcotest.bool "refused connection is closed" false (Chan.is_connected cl3.cl_ep);
  let st = Evloop.stats loop in
  check Alcotest.int "refusal counted" 1 st.Evloop.es_refused_admission;
  check Alcotest.int "no session was opened for it" 0
    (Server.stats (Evloop.server loop)).Server.sv_opened;
  (* draining refuses even below the cap *)
  Evloop.begin_drain loop;
  let cl4, r4 = connect loop arch_of_conn [] in
  (match r4 with
  | `Refused -> ()
  | `Conn _ -> Alcotest.fail "draining server should refuse admission");
  match client_recv cl4 with
  | [ Swire.S_refused (Server.Overloaded m) ] ->
      check Alcotest.bool "refusal names the drain" true
        (String.length m >= 5 && String.sub m 0 5 = "serve")
  | ms -> Alcotest.failf "expected one typed refusal, got %d messages" (List.length ms)

(** The handshake is policed: a wrong version magic and a command before
    hello both earn a typed error and a closed connection — no session is
    ever bound. *)
let test_handshake_policing () =
  let images = single_arch_images Arch.Mips in
  let arch_of_conn = Hashtbl.create 4 in
  let loop = make_loop ~images ~arch_of_conn () in
  let bad_version, r1 = connect loop arch_of_conn [] in
  ignore (conn_exn r1);
  client_send bad_version (Swire.C_hello { magic = "LDBSRV0" });
  let impatient, r2 = connect loop arch_of_conn [] in
  ignore (conn_exn r2);
  client_send impatient (Swire.C_cmd Server.Continue);
  Evloop.tick loop;
  (match client_recv bad_version with
  | [ Swire.S_error m ] ->
      check Alcotest.bool "error names the version" true
        (String.length m > 0 && Chan.is_connected bad_version.cl_ep = false)
  | ms -> Alcotest.failf "bad version: expected one typed error, got %d" (List.length ms));
  (match client_recv impatient with
  | [ Swire.S_error _ ] ->
      check Alcotest.bool "closed after command-before-hello" false
        (Chan.is_connected impatient.cl_ep)
  | ms -> Alcotest.failf "no hello: expected one typed error, got %d" (List.length ms));
  check Alcotest.int "no session was ever opened" 0
    (Server.stats (Evloop.server loop)).Server.sv_opened

(** Sessions of one image share it: 20 hello/bye cycles, one after
    another, alternating the four targets, load each target's image once
    and serve the other 16 opens from the cache. *)
let test_hello_bye_cache () =
  let images = Array.map (fun arch -> Host.build_image ~arch fib_sources) (Array.of_list Arch.all) in
  let arch_of_conn = Hashtbl.create 32 in
  let loop = make_loop ~images ~arch_of_conn () in
  let hellos =
    List.init 20 (fun i ->
        let cl, res = connect ~arch_ix:(i mod 4) loop arch_of_conn [] in
        ignore (conn_exn res);
        client_send cl (Swire.C_hello { magic = Swire.version_magic });
        cl.cl_awaiting <- true;
        let step () = step_healthy cl; not cl.cl_done in
        ignore (run_clients loop [ step ] ~max_ticks:50);
        List.filter (has_prefix "hello: ") cl.cl_transcript)
  in
  check Alcotest.int "20 distinct hellos" 20
    (List.length (List.sort_uniq compare (List.concat hellos)));
  let st = Server.stats (Evloop.server loop) in
  check Alcotest.(pair int int) "4 misses, 16 hits" (4, 16)
    (st.Server.sv_cache_misses, st.Server.sv_cache_hits)

(** Slowloris: a client dribbling a frame slower than the read deadline
    earns strikes and is quarantined with a typed goodbye; its session is
    released cleanly. *)
let test_slowloris_quarantine () =
  let images = single_arch_images Arch.Mips in
  let arch_of_conn = Hashtbl.create 4 in
  let limits =
    { Evloop.default_limits with Evloop.el_read_deadline = 3; el_max_strikes = 2 }
  in
  let loop = make_loop ~limits ~images ~arch_of_conn () in
  let cl, r = connect loop arch_of_conn [] in
  ignore (conn_exn r);
  client_send cl (Swire.C_hello { magic = Swire.version_magic });
  Evloop.tick loop;
  let sid =
    match client_recv cl with
    | [ Swire.S_hello { session } ] -> session
    | ms -> Alcotest.failf "expected hello, got %d messages" (List.length ms)
  in
  (* the slowloris signature: frame headers whose promised payloads never
     come, parked on the wire slower than the read deadline *)
  let frame = Swire.seal ~seq:99 (Swire.encode_client (Swire.C_cmd Server.Where)) in
  let header = String.sub frame 0 Ldb_util.Bytecodec.header_len in
  let quarantined = ref false in
  let ticks = ref 0 in
  while (not !quarantined) && !ticks < 100 do
    incr ticks;
    if !ticks mod 8 = 1 then client_send_raw cl header;
    Evloop.tick loop;
    List.iter
      (fun m -> match m with Swire.S_bye _ -> quarantined := true | _ -> ())
      (client_recv cl)
  done;
  check Alcotest.bool "slowloris got a typed goodbye" true !quarantined;
  check Alcotest.int "quarantine counted" 1 (Evloop.stats loop).Evloop.es_quarantined;
  match Server.session_state (Evloop.server loop) sid with
  | Some Server.Closed -> ()
  | st ->
      Alcotest.failf "session should be closed, is %s"
        (match st with Some s -> Server.state_name s | None -> "gone")

(** Half-open reaping: a client that goes silent without disconnecting is
    reaped after the idle timeout, and its session goes down the salvage
    path — core grabbed, [Down {salvaged = true}]. *)
let test_half_open_reap_salvages () =
  let images = [| Host.build_image ~arch:Arch.Vax segv_sources |] in
  let arch_of_conn = Hashtbl.create 4 in
  let limits = { Evloop.default_limits with Evloop.el_idle_timeout = 10 } in
  let loop = make_loop ~limits ~images ~arch_of_conn () in
  let cl, r = connect loop arch_of_conn [] in
  ignore (conn_exn r);
  client_send cl (Swire.C_hello { magic = Swire.version_magic });
  (* run the target into its fatal stop, so the reaper's going-down hook
     has something worth salvaging *)
  client_send cl (Swire.C_cmd Server.Continue);
  Evloop.tick loop;
  Evloop.tick loop;
  let sid =
    match
      List.filter_map
        (function Swire.S_hello { session } -> Some session | _ -> None)
        (client_recv cl)
    with
    | [ session ] -> session
    | _ -> Alcotest.fail "expected exactly one hello"
  in
  (* now: total silence, link still up *)
  for _ = 1 to 20 do
    Evloop.tick loop
  done;
  check Alcotest.int "reap counted" 1 (Evloop.stats loop).Evloop.es_reaped_idle;
  (match Server.session_state (Evloop.server loop) sid with
  | Some (Server.Down { salvaged; _ }) ->
      check Alcotest.bool "core salvaged on the way down" true salvaged
  | st ->
      Alcotest.failf "session should be down, is %s"
        (match st with Some s -> Server.state_name s | None -> "gone"));
  (* the salvaged core still answers Fetch_core, server-side *)
  match Server.exec (Evloop.server loop) sid Server.Fetch_core with
  | Ok (Server.R_core _) -> ()
  | Ok r -> Alcotest.failf "expected a core, got %s" (Server.reply_to_string r)
  | Error r -> Alcotest.failf "core refused: %s" (Server.refusal_to_string r)

(** An observable disconnect mid-command releases the session cleanly:
    the target is detached (the nub link is not the client wire). *)
let test_disconnect_clean_release () =
  let images = single_arch_images Arch.Mips in
  let arch_of_conn = Hashtbl.create 4 in
  let loop = make_loop ~images ~arch_of_conn () in
  let cl, r = connect loop arch_of_conn [] in
  ignore (conn_exn r);
  client_send cl (Swire.C_hello { magic = Swire.version_magic });
  Evloop.tick loop;
  let sid =
    match client_recv cl with
    | [ Swire.S_hello { session } ] -> session
    | _ -> Alcotest.fail "expected hello"
  in
  (* half a frame, then gone — mid-command disconnect *)
  let frame = Swire.seal ~seq:5 (Swire.encode_client (Swire.C_cmd Server.Backtrace)) in
  client_send_raw cl (String.sub frame 0 7);
  Chan.disconnect cl.cl_ep;
  (* the torn tail holds the release off until the read deadline clears
     it; then the dead wire is noticed and the session released *)
  for _ = 1 to 15 do
    Evloop.tick loop
  done;
  check Alcotest.int "disconnect counted" 1 (Evloop.stats loop).Evloop.es_disconnects;
  match Server.session_state (Evloop.server loop) sid with
  | Some Server.Closed -> ()
  | st ->
      Alcotest.failf "session should be closed, is %s"
        (match st with Some s -> Server.state_name s | None -> "gone")

(** A receive buffer cannot be ballooned: a frame header promising more
    than the buffer cap quarantines the sender when the bytes pile up. *)
let test_rx_overflow_quarantine () =
  let images = single_arch_images Arch.Mips in
  let arch_of_conn = Hashtbl.create 4 in
  let limits = { Evloop.default_limits with Evloop.el_rx_buffer = 1024 } in
  let loop = make_loop ~limits ~images ~arch_of_conn () in
  let cl, r = connect loop arch_of_conn [] in
  ignore (conn_exn r);
  (* a legal-looking header claiming 8000 bytes, then a flood of filler
     that can never complete it before the buffer cap *)
  let body = String.make 8000 'x' in
  let frame = Swire.seal ~seq:0 body in
  client_send_raw cl (String.sub frame 0 2000);
  Evloop.tick loop;
  check Alcotest.int "overflow quarantined" 1 (Evloop.stats loop).Evloop.es_quarantined;
  check Alcotest.bool "connection closed" false (Chan.is_connected cl.cl_ep)

(** Fairness: a backlogged client must not starve a light one — the
    light client's single command answers on the very tick it could,
    despite 8 queued commands ahead of it on the other connection. *)
let test_drr_fairness () =
  let images = single_arch_images Arch.Mips in
  let arch_of_conn = Hashtbl.create 4 in
  (* a quantum small enough that the flood cannot drain in one round,
     but big enough for any single command *)
  let limits = { Evloop.default_limits with Evloop.el_quantum = 8 } in
  let loop = make_loop ~limits ~images ~arch_of_conn () in
  let heavy, rh = connect loop arch_of_conn [] in
  let light, rl = connect loop arch_of_conn [] in
  ignore (conn_exn rh);
  ignore (conn_exn rl);
  client_send heavy (Swire.C_hello { magic = Swire.version_magic });
  client_send light (Swire.C_hello { magic = Swire.version_magic });
  Evloop.tick loop;
  ignore (client_recv heavy);
  ignore (client_recv light);
  (* heavy floods a breakpoint, a continue into it, and a run of
     backtraces — the continue alone costs the transport dozens of RPCs,
     so the backlog spans several DRR rounds; light sends one cheap
     command in the same tick *)
  client_send heavy (Swire.C_cmd (Server.Break_function "fib"));
  client_send heavy (Swire.C_cmd Server.Continue);
  for _ = 1 to 7 do
    client_send heavy (Swire.C_cmd Server.Backtrace)
  done;
  client_send light (Swire.C_cmd (Server.Break_function "fib"));
  Evloop.tick loop;
  let light_replies =
    List.filter (function Swire.S_reply _ -> true | _ -> false) (client_recv light)
  in
  check Alcotest.int "light client answered on the first tick" 1
    (List.length light_replies);
  (* the flood really did outlast the first round *)
  check Alcotest.bool "heavy backlog survived its first quantum" true
    (Evloop.queued loop > 0);
  (* and the heavy client is not starved either: its whole queue drains *)
  let got = ref 0 in
  for _ = 1 to 200 do
    Evloop.tick loop;
    got :=
      !got
      + List.length
          (List.filter (function Swire.S_reply _ -> true | _ -> false) (client_recv heavy))
  done;
  check Alcotest.int "heavy client's backlog fully served" 9
    (got := !got
            + List.length
                (List.filter
                   (function Swire.S_reply _ -> true | _ -> false)
                   (client_recv heavy));
     !got)

(** Fairness under a flood: 32 clients over the four targets each send a
    whole six-command script in one burst.  When the first client's queue
    empties, deficit round robin has served every client (none starved)
    and none more than 3x another; then the backlog drains completely. *)
let test_flood_fairness () =
  let images =
    Array.of_list (List.map (fun arch -> Host.build_image ~arch fib_sources) Arch.all)
  in
  let n_conns = 32 in
  let arch_of_conn = Hashtbl.create n_conns in
  let limits =
    { Evloop.default_limits with Evloop.el_max_conns = n_conns; el_quantum = 8 }
  in
  let loop = make_loop ~limits ~images ~arch_of_conn () in
  let script =
    Server.
      [ Break_function "fib"; Continue; Read_int "n"; Print "n"; Backtrace; Continue ]
  in
  let clients =
    List.init n_conns (fun i ->
        let cl, res = connect ~arch_ix:(i mod Array.length images) loop arch_of_conn [] in
        ignore (conn_exn res);
        cl)
  in
  List.iter (fun cl -> client_send cl (Swire.C_hello { magic = Swire.version_magic })) clients;
  Evloop.tick loop;
  List.iter (fun cl -> List.iter (fun c -> client_send cl (Swire.C_cmd c)) script) clients;
  let served () = List.map (fun c -> c.Evloop.cn_served) (Evloop.conns loop) in
  let rec first_finish ticks =
    if ticks >= 100_000 then Alcotest.fail "no client finished its script"
    else begin
      Evloop.tick loop;
      if List.exists (fun c -> Queue.is_empty c.Evloop.cn_q) (Evloop.conns loop) then
        served ()
      else first_finish (ticks + 1)
    end
  in
  let at_first = first_finish 0 in
  let most = List.fold_left max 0 at_first and fewest = List.fold_left min max_int at_first in
  Alcotest.(check bool) "no client starved at first finish" true (fewest > 0);
  Alcotest.(check bool)
    (Printf.sprintf "served %d..%d at first finish: ratio within 3.0" fewest most)
    true
    (most <= 3 * fewest);
  let ticks = ref 0 in
  while Evloop.queued loop > 0 && !ticks < 100_000 do
    incr ticks;
    Evloop.tick loop
  done;
  check Alcotest.int "every command served" (6 * n_conns)
    (Evloop.stats loop).Evloop.es_served

(** Graceful drain: queued commands finish, every connection gets a
    goodbye, sessions detach, the report says so, and nothing is
    admitted afterwards. *)
let test_graceful_drain () =
  let images = single_arch_images Arch.Mips in
  let arch_of_conn = Hashtbl.create 4 in
  let loop = make_loop ~images ~arch_of_conn () in
  let a, ra = connect loop arch_of_conn [] in
  let b, rb = connect loop arch_of_conn [] in
  ignore (conn_exn ra);
  ignore (conn_exn rb);
  client_send a (Swire.C_hello { magic = Swire.version_magic });
  client_send b (Swire.C_hello { magic = Swire.version_magic });
  Evloop.tick loop;
  ignore (client_recv a);
  ignore (client_recv b);
  (* in-flight work at drain time *)
  client_send a (Swire.C_cmd (Server.Break_function "fib"));
  client_send a (Swire.C_cmd Server.Continue);
  client_send b (Swire.C_cmd Server.Where);
  (* one tick to ingest the frames, then drain *)
  Evloop.tick loop;
  let rep = Evloop.drain loop in
  check Alcotest.bool "drain completed in its deadline" true rep.Evloop.dr_completed;
  check Alcotest.int "both sessions detached" 2 rep.Evloop.dr_detached;
  check Alcotest.int "nothing needed salvage" 0 rep.Evloop.dr_salvaged;
  let a_msgs = client_recv a and b_msgs = client_recv b in
  let replies ms = List.length (List.filter (function Swire.S_reply _ -> true | _ -> false) ms) in
  let byes ms = List.length (List.filter (function Swire.S_bye _ -> true | _ -> false) ms) in
  check Alcotest.int "client a: queued commands answered" 2 (replies a_msgs);
  check Alcotest.int "client a: one goodbye" 1 (byes a_msgs);
  check Alcotest.int "client b: queued command answered" 1 (replies b_msgs);
  check Alcotest.int "client b: one goodbye" 1 (byes b_msgs);
  List.iter
    (fun s ->
      match s.Server.ss_state with
      | Server.Closed | Server.Down _ -> ()
      | st -> Alcotest.failf "session %d not released: %s" s.Server.ss_id (Server.state_name st))
    (Server.sessions (Evloop.server loop))

(* --- the chaos soak ----------------------------------------------------------- *)

type hostile =
  | Garbage  (** seeded random bytes, never a hello *)
  | Tearer  (** frames torn at every byte boundary, intact ones behind *)
  | Slow  (** dribbles below the read deadline *)
  | Vanisher  (** disconnects mid-command *)
  | Ghost  (** goes silent with the link up: half-open *)
  | Faulted  (** a healthy script over a seeded faulty wire *)

let hostile_name = function
  | Garbage -> "garbage"
  | Tearer -> "tearer"
  | Slow -> "slowloris"
  | Vanisher -> "vanisher"
  | Ghost -> "ghost"
  | Faulted -> "faulted"

let hostiles = [| Garbage; Tearer; Slow; Vanisher; Ghost; Faulted |]

let soak_clients () =
  match Sys.getenv_opt "LDB_WIRE_SOAK_CLIENTS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 1 -> n | _ -> 64)
  | None -> 64

let soak_log_path () =
  let dir = Option.value ~default:"." (Sys.getenv_opt "LDB_SOAK_LOG_DIR") in
  Filename.concat dir "server-wire-soak-events.log"

let test_chaos_soak () =
  let n = soak_clients () in
  let arches = Array.of_list Arch.all in
  let images = Array.map (fun arch -> Host.build_image ~arch fib_sources) arches in
  let baselines =
    Array.init (Array.length arches) (fun ix ->
        wire_baseline ~images ~arch_ix:ix)
  in
  let arch_of_conn = Hashtbl.create 64 in
  let limits =
    {
      Evloop.default_limits with
      Evloop.el_max_conns = n + 16;
      el_read_deadline = 6;
      el_idle_timeout = 40;
      el_max_strikes = 3;
      el_max_errors = 16;
      el_drain_deadline = 400;
    }
  in
  let loop = make_loop ~limits ~images ~arch_of_conn () in
  let rng = Random.State.make [| 0x51EE7 |] in
  (* every client: healthy on even indices, the hostile rotation on odd *)
  let kind_of i = if i mod 2 = 0 then None else Some hostiles.((i / 2) mod Array.length hostiles) in
  let clients =
    Array.init n (fun i ->
        let arch_ix = i mod Array.length arches in
        let fault =
          match kind_of i with
          | Some Faulted ->
              Some
                ( 9000 + (31 * i),
                  Faultchan.profile ~rate:0.08
                    ~kinds:Faultchan.[ Drop; Corrupt; Truncate; Duplicate; Stall ]
                    ~stall_ticks:3 () )
          | _ -> None
        in
        let cl, res = connect ?fault ~arch_ix loop arch_of_conn soak_script in
        ignore (conn_exn res);
        (i, arch_ix, kind_of i, cl))
  in
  (* per-client driver state machines *)
  let steps =
    Array.to_list
      (Array.map
         (fun (_i, _arch_ix, kind, cl) ->
           match kind with
           | None | Some Faulted ->
               let started = ref false in
               fun () ->
                 if not !started then begin
                   started := true;
                   client_send cl (Swire.C_hello { magic = Swire.version_magic });
                   cl.cl_awaiting <- true
                 end;
                 step_healthy cl;
                 not cl.cl_done
           | Some Garbage ->
               let sent = ref 0 in
               fun () ->
                 ignore
                   (List.map
                      (fun m ->
                        cl.cl_transcript <- Swire.server_msg_to_string m :: cl.cl_transcript;
                        m)
                      (client_recv cl));
                 if !sent < 40 && Chan.is_connected cl.cl_ep then begin
                   incr sent;
                   let len = 5 + Random.State.int rng 30 in
                   client_send_raw cl
                     (String.init len (fun _ -> Char.chr (Random.State.int rng 256)))
                 end;
                 !sent < 40 && Chan.is_connected cl.cl_ep
           | Some Tearer ->
               (* hello first, then every command as a torn prefix with the
                  intact frame right behind — the tear offset sweeps the
                  whole frame as the script advances *)
               let state = ref (-1) in
               let cmds = ref soak_script in
               fun () ->
                 List.iter
                   (fun m ->
                     cl.cl_transcript <- Swire.server_msg_to_string m :: cl.cl_transcript;
                     match m with Swire.S_bye _ -> cl.cl_done <- true | _ -> ())
                   (client_recv cl);
                 if cl.cl_done then false
                 else begin
                   (if !state = -1 then
                      client_send cl (Swire.C_hello { magic = Swire.version_magic })
                    else if !state mod 4 = 0 then begin
                      match !cmds with
                      | cmd :: rest ->
                          cmds := rest;
                          let frame =
                            Swire.seal ~seq:cl.cl_seq
                              (Swire.encode_client (Swire.C_cmd cmd))
                          in
                          cl.cl_seq <- cl.cl_seq + 1;
                          let cut = 1 + (!state / 4 * 5 mod (String.length frame - 1)) in
                          client_send_raw cl (String.sub frame 0 cut);
                          client_send_raw cl frame
                      | [] ->
                          cl.cl_done <- true;
                          client_send cl Swire.C_bye
                    end);
                   incr state;
                   not cl.cl_done
                 end
           | Some Slow ->
               let frame =
                 Swire.seal ~seq:7 (Swire.encode_client (Swire.C_cmd Server.Where))
               in
               let state = ref (-1) in
               let pos = ref 0 in
               fun () ->
                 List.iter
                   (fun m ->
                     cl.cl_transcript <- Swire.server_msg_to_string m :: cl.cl_transcript;
                     match m with Swire.S_bye _ -> cl.cl_done <- true | _ -> ())
                   (client_recv cl);
                 if cl.cl_done then false
                 else begin
                   (if !state = -1 then
                      client_send cl (Swire.C_hello { magic = Swire.version_magic })
                    else if !state mod 9 = 0 && !pos < String.length frame then begin
                      client_send_raw cl (String.make 1 frame.[!pos]);
                      incr pos
                    end);
                   incr state;
                   not cl.cl_done
                 end
           | Some Vanisher ->
               let state = ref (-1) in
               fun () ->
                 List.iter
                   (fun m ->
                     cl.cl_transcript <- Swire.server_msg_to_string m :: cl.cl_transcript)
                   (client_recv cl);
                 incr state;
                 (match !state with
                 | 0 -> client_send cl (Swire.C_hello { magic = Swire.version_magic })
                 | 4 -> client_send cl (Swire.C_cmd (Server.Break_function "fib"))
                 | 8 ->
                     (* half a command, then gone *)
                     let frame =
                       Swire.seal ~seq:9 (Swire.encode_client (Swire.C_cmd Server.Continue))
                     in
                     client_send_raw cl (String.sub frame 0 9);
                     (try Chan.disconnect cl.cl_ep with _ -> ());
                     cl.cl_done <- true
                 | _ -> ());
                 not cl.cl_done
           | Some Ghost ->
               let state = ref (-1) in
               fun () ->
                 List.iter
                   (fun m ->
                     cl.cl_transcript <- Swire.server_msg_to_string m :: cl.cl_transcript)
                   (client_recv cl);
                 incr state;
                 (match !state with
                 | 0 -> client_send cl (Swire.C_hello { magic = Swire.version_magic })
                 | 4 -> client_send cl (Swire.C_cmd (Server.Break_function "fib"))
                 | _ -> ());
                 (* never says another word; keep stepping so the reap's
                    goodbye lands in the transcript *)
                 !state < 120)
         clients)
  in
  let ticks = run_clients loop steps ~max_ticks:600 in
  (* reconnect storm: a burst past the cap; the overflow must be refused
     with typed frames before any handshake work *)
  let open_now = List.length (Evloop.conns loop) in
  let burst = limits.Evloop.el_max_conns - open_now + 5 in
  let refused_before = (Evloop.stats loop).Evloop.es_refused_admission in
  let storm =
    List.init burst (fun _ ->
        let cl, res = connect loop arch_of_conn [] in
        (cl, res))
  in
  let refused_typed =
    List.length
      (List.filter
         (fun (cl, res) ->
           match res with
           | `Refused -> (
               match client_recv cl with
               | [ Swire.S_refused (Server.Overloaded _) ] -> true
               | _ -> false)
           | `Conn _ ->
               (* admitted stormers vanish immediately *)
               (try Chan.disconnect cl.cl_ep with _ -> ());
               false)
         storm)
  in
  check Alcotest.int "storm overflow refused, typed, every time" 5 refused_typed;
  check Alcotest.int "refusals counted" (refused_before + 5)
    (Evloop.stats loop).Evloop.es_refused_admission;
  Evloop.tick loop;
  (* drain within its deadline *)
  let rep = Evloop.drain loop in
  (* flight recorder out first, so a failing assert still leaves it *)
  let sv = Evloop.server loop in
  let oc = open_out (soak_log_path ()) in
  List.iter
    (fun e -> output_string oc (Server.log_entry_to_string e ^ "\n"))
    (Server.events sv);
  output_string oc (Server.render_sessions sv);
  close_out oc;
  check Alcotest.bool
    (Printf.sprintf "drain completed within its %d-tick deadline"
       limits.Evloop.el_drain_deadline)
    true rep.Evloop.dr_completed;
  (* the verdicts *)
  let st = Evloop.stats loop in
  Array.iter
    (fun (i, arch_ix, kind, cl) ->
      let who =
        Printf.sprintf "client %d (%s, %s)" i
          (Arch.name arches.(arch_ix))
          (match kind with None -> "healthy" | Some h -> hostile_name h)
      in
      match kind with
      | None ->
          (* byte-identical to the single-client baseline *)
          let base = baselines.(arch_ix) in
          let got = answers cl in
          check Alcotest.int (who ^ ": same number of answers") (List.length base)
            (List.length got);
          List.iter2
            (fun b g -> check Alcotest.string (who ^ ": answer") b g)
            base got
      | Some (Garbage | Tearer | Slow) ->
          (* every actively-hostile client heard something typed *)
          check Alcotest.bool (who ^ ": saw a typed error/refusal/goodbye") true
            (typed_lines cl <> [])
      | Some Ghost ->
          check Alcotest.bool (who ^ ": heard the reaper's goodbye") true
            (List.exists
               (fun l -> String.length l >= 4 && String.sub l 0 4 = "bye:")
               (List.rev cl.cl_transcript))
      | Some (Vanisher | Faulted) ->
          (* nothing promised beyond the server surviving them *)
          ())
    clients;
  (* the hostile machinery actually fired *)
  check Alcotest.bool "protocol errors were recorded" true (st.Evloop.es_protocol_errors > 0);
  check Alcotest.bool "quarantines happened" true (st.Evloop.es_quarantined > 0);
  check Alcotest.bool "half-open reaps happened" true (st.Evloop.es_reaped_idle > 0);
  check Alcotest.bool "healthy work was served" true (st.Evloop.es_served > 0);
  (* every session is released after drain *)
  List.iter
    (fun s ->
      match s.Server.ss_state with
      | Server.Closed | Server.Down _ -> ()
      | stt ->
          Alcotest.failf "session %d leaked from drain: %s" s.Server.ss_id
            (Server.state_name stt))
    (Server.sessions sv);
  if ticks >= 600 then Alcotest.fail "soak clients did not settle in 600 ticks"

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "evloop"
    [
      ( "admission",
        [ case "cap and drain refuse typed, pre-handshake" test_admission_cap ] );
      ( "handshake",
        [ case "version and order policed" test_handshake_policing;
          case "hello/bye cycles hit the image cache" test_hello_bye_cache ] );
      ( "hostile",
        [
          case "slowloris quarantined" test_slowloris_quarantine;
          case "half-open reaped into core salvage" test_half_open_reap_salvages;
          case "mid-command disconnect releases cleanly" test_disconnect_clean_release;
          case "rx overflow quarantined" test_rx_overflow_quarantine;
        ] );
      ( "fairness",
        [ case "deficit round robin starves no one" test_drr_fairness;
          case "32-client flood within 3x at first finish" test_flood_fairness ] );
      ("drain", [ case "graceful drain: finish, goodbye, release" test_graceful_drain ]);
      ( "soak",
        [ case "chaos soak: 64 wire clients, hostile subset" test_chaos_soak ] );
    ]
