(** wire_fanout: two clients on simulated links ({!Evloop.sim_link})
    drive one server through {!Swire} frames and the event loop's DRR
    scheduling.  Each client connects, says hello (the attach latency is
    hello until the session is bound), runs a long stop/inspect script on
    the deep program, says goodbye and reconnects, alternating across the
    four targets.  The run ends at [cap] sessions: the server keeps every
    closed session and its process, so the cap bounds the heap.

    A client's script is generated from the seed, per target, and run
    once through {!Server.exec} on a private reference server before the
    run; every wire reply must equal the reference reply byte for byte,
    and the reference itself is checked against the program's model. *)

open Ldb_machine
open Harness
module Deep = Programs.Deep
module Server = Ldb_ldb.Server
module Evloop = Ldb_ldb.Evloop
module Swire = Ldb_ldb.Swire
module Eval = Ldb_exprserver.Eval

let cap = 100
let rounds = 1_000_000
let stops () = if !Harness.smoke then 20 else 600

let archs = Array.of_list Arch.all

(** A script: commands with the reply each must get. *)
type script = { cmds : Server.command array; replies : string array (* encoded S_reply *) }

let cls_of = function
  | Server.Continue | Server.Step_source -> Resume
  | Server.Where | Server.Backtrace | Server.Print _ | Server.Read_int _ | Server.Fetch_core -> Inspect
  | Server.Break_function _ | Server.Break_line _ | Server.Condition _ | Server.Detach | Server.Kill -> Modify

let encoded m = Swire.encode_server m

let cond_compiler (h : Harness.t) : Server.cond_compiler =
  let sessions = Hashtbl.create 4 in
  fun d tg ~addr text ->
    let arch = tg.Ldb.tg_arch in
    let sess =
      match Hashtbl.find_opt sessions (Arch.name arch) with
      | Some s -> s
      | None ->
          let s = Eval.start ~arch in
          Hashtbl.replace sessions (Arch.name arch) s;
          s
    in
    Harness.exprserver h (fun () -> Eval.compile_condition d tg sess ~addr text)

(** Run the seeded script for target [ix] through [Server.exec] and
    check it against the model: every read of [n] names the stop the
    breakpoint and its current condition predict.  The breakpoint's
    function and the two condition thresholds are fixed, so every seed
    asks for the same kind of work; the seed places the steps and the
    condition changes. *)
let reference (h : Harness.t) rng ~ix built : script =
  let k = (2 * ix) + 1 in
  let thresholds = [| 3; 9 |] in
  let sv = Server.create () in
  Server.set_cond_compiler sv (cond_compiler h);
  let p = Host.launch_image built in
  let sid =
    match Server.open_session sv ~name:"reference" ~loader_ps:p.Host.hp_loader_ps (Host.open_channel p) with
    | Ok sid -> sid
    | Error r -> raise (Mismatch ("reference session: " ^ Server.refusal_to_string r))
  in
  let cmds = ref [] and replies = ref [] in
  let exec c =
    (* one command per server tick, as the event loop serves them *)
    Server.tick sv;
    match Server.exec sv sid c with
    | Ok r ->
        cmds := c :: !cmds;
        replies := encoded (Swire.S_reply r) :: !replies;
        r
    | Error e -> raise (Mismatch ("reference: " ^ Server.refusal_to_string e))
  in
  let addr =
    match exec (Server.Break_function (Printf.sprintf "d%d" k)) with
    | Server.R_addr a -> a
    | _ -> raise (Mismatch "reference: break did not answer an address")
  in
  let threshold = ref thresholds.(0) in
  let condition t = ignore (exec (Server.Condition { addr; cond = Printf.sprintf "n > %d" t })) in
  condition !threshold;
  let pos = ref (0, -1) and which = ref 0 in
  for _ = 1 to stops () do
    if Random.State.int rng 50 = 0 then begin
      which := 1 - !which;
      threshold := thresholds.(!which);
      condition !threshold
    end;
    ignore (exec Server.Continue);
    let rec next p =
      match Deep.next_call ~rounds ~k p with
      | Some (_, j) as q when Deep.n_at j <= !threshold -> next (Option.get q)
      | q -> Option.get q
    in
    pos := next !pos;
    let w = exec Server.Where in
    check "reference where"
      (starts_with ~prefix:(Printf.sprintf "SIGTRAP in d%d line" k) (Server.reply_to_string w));
    ignore (exec Server.Backtrace);
    ignore (exec (Server.Print "acc"));
    (match exec (Server.Read_int "n") with
    | Server.R_int n -> expect_int "reference n" ~want:(Deep.n_at (snd !pos)) n
    | _ -> raise (Mismatch "reference: read did not answer an integer"));
    if Random.State.int rng 4 = 0 then begin
      ignore (exec Server.Step_source);
      ignore (exec Server.Where)
    end
  done;
  { cmds = Array.of_list (List.rev !cmds); replies = Array.of_list (List.rev !replies) }

(* --- the clients ------------------------------------------------------------- *)

type client = {
  cl_id : int;
  mutable sessions : int;  (** sessions this client has started *)
  mutable ep : Chan.endpoint option;
  mutable rx : string;
  mutable seq : int;
  mutable sid : int;
  mutable arch : int;
  mutable pc : int;  (** -1: hello outstanding; script index; script length: bye *)
  mutable waiting : bool;
  mutable sent_ns : int;
  mutable written_ns : int;  (** when the server wrote the reply to the request in flight *)
  mutable sent_tick : int;
  mutable rpcs0 : int;
  mutable finished : bool;
}

let references : (int * script array) option ref = ref None

(** The seed's scripts, one per target, made once per run. *)
let prepare (h : Harness.t) ~(seed : int) =
  let rng = Random.State.make [| seed |] in
  let scripts =
    Array.mapi (fun ix arch -> reference h rng ~ix (Host.build_image ~arch (Deep.sources ~rounds))) archs
  in
  references := Some (seed, scripts)

let setup (h : Harness.t) ~(seed : int) : world =
  let scripts =
    match !references with
    | Some (s, scripts) when s = seed -> scripts
    | _ -> invalid_arg "Wire_fanout.setup: prepare the scripts first"
  in
  let built = Array.map (fun arch -> Host.build_image ~arch (Deep.sources ~rounds)) archs in
  let sv = Server.create () in
  Server.set_cond_compiler sv (cond_compiler h);
  let d = Server.debugger sv in
  (* warm-up: load every image into the server's cache and force it *)
  Array.iter
    (fun b ->
      let p = Host.launch_image b in
      match Server.open_session sv ~name:"warm" ~loader_ps:p.Host.hp_loader_ps (Harness.open_channel p) with
      | Ok sid ->
          Option.iter (fun s -> Ldb.force_symbols d s.Server.ss_tg) (Server.session sv sid);
          Server.close_session sv sid
      | Error r -> raise (Mismatch ("warm-up session: " ^ Server.refusal_to_string r)))
    built;
  let conn_arch = Hashtbl.create 256 in
  let bind ~conn_id =
    let p = Harness.launch h built.(Hashtbl.find conn_arch conn_id) in
    let hits0 = (Server.stats sv).Server.sv_cache_hits in
    let r =
      Harness.timed h.connect_us Span.Ldb (fun () ->
          Server.open_session sv ~name:"wire" ~loader_ps:p.Host.hp_loader_ps (Harness.open_channel p))
    in
    Span.count "server.image_cache_hits" ((Server.stats sv).Server.sv_cache_hits - hits0);
    r
  in
  let loop = Evloop.create sv ~bind in
  let opened = ref 0 and tick = ref 0 in
  let clients =
    Array.init 2 (fun i ->
        { cl_id = i; sessions = 0; ep = None; rx = ""; seq = 0; sid = 0; arch = 0; pc = -1;
          waiting = false; sent_ns = 0; written_ns = 0; sent_tick = 0; rpcs0 = 0;
          finished = false })
  in
  let session_rpcs c =
    match Server.session sv c.sid with
    | Some { Server.ss_tg = { Ldb.tg_conn = Ldb.Live tr; _ }; _ } -> (Transport.stats tr).Transport.st_rpcs
    | _ -> 0
  in
  let send c ep m =
    c.sent_ns <- Span.now ();
    c.sent_tick <- !tick;
    c.waiting <- true;
    Span.span Span.Swire (fun () -> Chan.send ep (Swire.seal ~seq:c.seq (Swire.encode_client m)));
    c.seq <- c.seq + 1
  in
  let go c =
    if (not c.waiting) && not c.finished then
      match c.ep with
      | None ->
          if !opened >= cap then c.finished <- true
          else begin
            incr opened;
            let ep, io, _ = Evloop.sim_link () in
            (* one tick serves both clients, but a client of a real server
               has its reply as soon as the server writes it: stamp the
               write, not the end of the tick *)
            let write s =
              if c.written_ns < c.sent_ns then c.written_ns <- Span.now ();
              io.Evloop.io_write s
            in
            let io = { io with Evloop.io_write = write } in
            (match Span.span Span.Evloop (fun () -> Evloop.accept loop io) with
            | `Conn id ->
                c.arch <- ((2 * c.sessions) + c.cl_id) mod Array.length archs;
                Hashtbl.replace conn_arch id c.arch
            | `Refused -> raise (Mismatch "wire: admission refused"));
            c.sessions <- c.sessions + 1;
            c.ep <- Some ep;
            c.rx <- "";
            c.seq <- 0;
            c.pc <- -1;
            send c ep (Swire.C_hello { magic = Swire.version_magic })
          end
      | Some ep ->
          let s = scripts.(c.arch) in
          if c.pc < Array.length s.cmds then begin
            c.rpcs0 <- session_rpcs c;
            send c ep (Swire.C_cmd s.cmds.(c.pc))
          end
          else send c ep Swire.C_bye
  in
  (* latency: from the send to the server's write, plus the client's decode *)
  let finish c cls ~decode_ns =
    Harness.record h cls (c.written_ns - c.sent_ns + decode_ns);
    if !Span.on then Vec.push h.wait_ticks (float (!tick - c.sent_tick));
    c.waiting <- false
  in
  let receive c =
    match c.ep with
    | None -> ()
    | Some ep ->
        let n = Chan.available ep in
        if n > 0 then begin
          c.rx <- c.rx ^ Chan.peek ep n;
          Chan.skip ep n
        end;
        let t0 = Span.now () in
        let msg =
          Span.span Span.Swire (fun () ->
              match Swire.scan ~max_payload:Swire.max_server_payload c.rx with
              | Swire.S_frame { payload; used; _ } ->
                  c.rx <- String.sub c.rx used (String.length c.rx - used);
                  Some (Swire.decode_server payload)
              | Swire.S_need -> None
              | Swire.S_skip { error; _ } -> raise (Mismatch ("wire: " ^ Swire.error_to_string error)))
        in
        let decode_ns = Span.now () - t0 in
        match msg with
        | None -> ()
        | Some (Error e) -> raise (Mismatch ("wire: " ^ Swire.error_to_string e))
        | Some (Ok m) -> (
            let s = scripts.(c.arch) in
            match m with
            | Swire.S_hello { session } when c.pc = -1 ->
                c.sid <- session;
                c.pc <- 0;
                finish c Attach ~decode_ns
            | Swire.S_bye "goodbye" when c.pc = Array.length s.cmds ->
                finish c Modify ~decode_ns;
                c.ep <- None
            | m when c.pc >= 0 && c.pc < Array.length s.cmds ->
                let cmd = s.cmds.(c.pc) in
                if cmd = Server.Backtrace then begin
                  Span.count "bt.rpcs" (session_rpcs c - c.rpcs0);
                  Span.count "bt.count" 1
                end;
                if not (String.equal (encoded m) s.replies.(c.pc)) then
                  raise
                    (Mismatch
                       (Printf.sprintf "wire reply to %s differs from Server.exec: %s"
                          (Server.command_name cmd) (Swire.server_msg_to_string m)));
                c.pc <- c.pc + 1;
                finish c (cls_of cmd) ~decode_ns
            | m -> raise (Mismatch ("wire: unexpected " ^ Swire.server_msg_to_string m)))
  in
  let step () =
    Span.command (fun () ->
        Array.iter go clients;
        let st = Evloop.stats loop in
        let in0 = st.Evloop.es_bytes_in and out0 = st.Evloop.es_bytes_out in
        Span.span Span.Evloop (fun () -> Evloop.tick loop);
        incr tick;
        Span.count "swire.bytes_in" (st.Evloop.es_bytes_in - in0);
        Span.count "swire.bytes_out" (st.Evloop.es_bytes_out - out0);
        Array.iter receive clients);
    not (Array.for_all (fun c -> c.finished) clients)
  in
  { step; interp = d.Ldb.interp }
