(** Wire-codec tests for the server front end: the decoders are total
    (arbitrary bytes yield typed errors, never exceptions), every
    command/reply/refusal constructor survives a round trip through its
    frame, the scanner makes progress on any input (no byte stream can
    wedge it), and a frame torn at {e every} byte boundary is resynced
    past, recovering the intact frame behind it. *)

open Ldb_machine
module Swire = Ldb_ldb.Swire
module Server = Ldb_ldb.Server
module Ldb = Ldb_ldb.Ldb
module Frame = Ldb_nub.Frame
module Bytecodec = Ldb_util.Bytecodec

let check = Alcotest.check

(* --- generators --------------------------------------------------------- *)

let gen_name = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 12))

let gen_command : Server.command QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      map (fun f -> Server.Break_function f) gen_name;
      ( opt gen_name >>= fun file ->
        int_bound 9999 >>= fun line -> return (Server.Break_line { file; line }) );
      ( int_bound 0xffffff >>= fun addr ->
        gen_name >>= fun cond -> return (Server.Condition { addr; cond }) );
      return Server.Continue;
      return Server.Step_source;
      return Server.Where;
      return Server.Backtrace;
      map (fun v -> Server.Print v) gen_name;
      map (fun v -> Server.Read_int v) gen_name;
      return Server.Fetch_core;
      return Server.Detach;
      return Server.Kill;
    ]

let gen_state : Ldb.state QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      return Ldb.Running;
      ( oneofl
          [ Signal.SIGTRAP; Signal.SIGSEGV; Signal.SIGFPE; Signal.SIGILL;
            Signal.SIGABRT; Signal.SIGINT ]
        >>= fun signal ->
        int_bound 0xffffff >>= fun code ->
        int_bound 0xffffff >>= fun ctx_addr ->
        return (Ldb.Stopped { signal; code; ctx_addr }) );
      map (fun n -> Ldb.Exited n) (int_range (-128) 255);
      return Ldb.Detached;
    ]

let gen_reply : Server.reply QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      return Server.R_unit;
      map (fun a -> Server.R_addr a) (int_bound 0xffffff);
      map (fun l -> Server.R_addrs l) (list_size (int_bound 8) (int_bound 0xffffff));
      map (fun st -> Server.R_state st) gen_state;
      map (fun t -> Server.R_text t) (string_size ~gen:printable (int_bound 200));
      map (fun n -> Server.R_int n) (int_range (-0x40000000) 0x3fffffff);
      map (fun co -> Server.R_core co) Testkit.core_gen;
    ]

let gen_refusal : Server.refusal QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      map (fun id -> Server.No_such_session id) (int_bound 9999);
      map (fun id -> Server.Session_closed id) (int_bound 9999);
      ( gen_name >>= fun reason ->
        bool >>= fun salvaged -> return (Server.Session_down { reason; salvaged }) );
      map (fun m -> Server.Overloaded m) gen_name;
      map (fun m -> Server.Failed m) gen_name;
    ]

let gen_client_msg : Swire.client_msg QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      return (Swire.C_hello { magic = Swire.version_magic });
      map (fun c -> Swire.C_cmd c) gen_command;
      return Swire.C_bye;
    ]

let gen_server_msg : Swire.server_msg QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      map (fun s -> Swire.S_hello { session = s }) (int_bound 9999);
      map (fun r -> Swire.S_reply r) gen_reply;
      map (fun r -> Swire.S_refused r) gen_refusal;
      map (fun m -> Swire.S_error m) gen_name;
      map (fun m -> Swire.S_bye m) gen_name;
    ]

let gen_bytes = QCheck.(string_gen_of_size (Gen.int_bound 300) Gen.char)

(* --- totality ------------------------------------------------------------ *)

let prop_decode_client_total =
  Testkit.qtest "decode_client never raises" ~count:500 gen_bytes (fun s ->
      match Swire.decode_client s with Ok _ | Error _ -> true)

let prop_decode_server_total =
  Testkit.qtest "decode_server never raises" ~count:500 gen_bytes (fun s ->
      match Swire.decode_server s with Ok _ | Error _ -> true)

(** The scanner is total {e and} makes progress: on any buffer it either
    wants more bytes, consumes a frame, or skips at least one byte — so a
    receive loop can never spin on a poisoned buffer. *)
let prop_scan_progress =
  Testkit.qtest "scan never raises and always progresses" ~count:500 gen_bytes
    (fun s ->
      match Swire.scan s with
      | Swire.S_need -> true
      | Swire.S_frame { used; _ } -> used > 0 && used <= String.length s
      | Swire.S_skip { skip; _ } -> skip > 0 && skip <= String.length s)

(* --- round trips --------------------------------------------------------- *)

let prop_client_roundtrip =
  Testkit.qtest "client messages roundtrip" ~count:500 (QCheck.make gen_client_msg)
    (fun m ->
      match Swire.decode_client (Swire.encode_client m) with
      | Ok m' -> m' = m
      | Error _ -> false)

let prop_server_roundtrip =
  Testkit.qtest "server messages roundtrip" ~count:300 (QCheck.make gen_server_msg)
    (fun m ->
      match Swire.decode_server (Swire.encode_server m) with
      | Ok m' -> m' = m
      | Error _ -> false)

let prop_framed_roundtrip =
  Testkit.qtest "sealed frames scan back out" ~count:300
    (QCheck.make QCheck.Gen.(pair (int_bound 0xffffff) gen_client_msg))
    (fun (seq, m) ->
      let frame = Swire.seal ~seq (Swire.encode_client m) in
      match Swire.scan frame with
      | Swire.S_frame { seq = seq'; payload; used } ->
          seq' = seq
          && used = String.length frame
          && Swire.decode_client payload = Ok m
      | _ -> false)

(** Every client and server message constructor, and one frame, pinned
    to the bytes it encoded to when the layout was fixed. *)
let goldens_case () =
  let cl name golden m = ("client " ^ name, golden, Swire.encode_client m) in
  let cmd name golden c = cl name golden (Swire.C_cmd c) in
  let sv name golden m = ("server " ^ name, golden, Swire.encode_server m) in
  let reply name golden r = sv name golden (Swire.S_reply r) in
  let refused name golden r = sv name golden (Swire.S_refused r) in
  let core =
    { Core.co_arch = Arch.Mips; co_signal = 11; co_code = 4; co_pc = 0x400;
      co_ctx_addr = 0x1f0000; co_regs = [| 1l; -2l |]; co_freg_bytes = 8;
      co_fregs = [| "\x00\x00\x00\x00\x00\x00\xf0\x3f" |];
      co_sections =
        [ { Core.sec_name = "data"; sec_base = 0x2000; sec_bytes = "\x07\x00\x00\x00";
            sec_crc = Ldb_util.Crc32.string "\x07\x00\x00\x00"; sec_ok = true } ] }
  in
  Testkit.check_goldens
    [
      cl "hello" "48070000004c444253525631" (Swire.C_hello { magic = Swire.version_magic });
      cmd "break_function" "436603000000666962" (Server.Break_function "fib");
      cmd "break_line" "436c000c000000" (Server.Break_line { file = None; line = 12 });
      cmd "break_line file" "436c0103000000612e6370110100"
        (Server.Break_line { file = Some "a.c"; line = 70000 });
      cmd "condition" "436b34120000060000006e203d3d2033"
        (Server.Condition { addr = 0x1234; cond = "n == 3" });
      cmd "continue" "4363" Server.Continue;
      cmd "step" "4373" Server.Step_source;
      cmd "where" "4377" Server.Where;
      cmd "backtrace" "4362" Server.Backtrace;
      cmd "print" "4370010000006e" (Server.Print "n");
      cmd "read" "43720100000069" (Server.Read_int "i");
      cmd "core" "436f" Server.Fetch_core;
      cmd "detach" "4364" Server.Detach;
      cmd "kill" "4378" Server.Kill;
      cl "bye" "42" Swire.C_bye;
      sv "hello" "48070000004c44425352563107000000" (Swire.S_hello { session = 7 });
      reply "unit" "5275" Server.R_unit;
      reply "addr" "526123014000" (Server.R_addr 0x400123);
      reply "addrs" "5241020000001000000020000000" (Server.R_addrs [ 0x10; 0x20 ]);
      reply "running" "527372" (Server.R_state Ldb.Running);
      reply "stopped" "527373050000000000000000001f00"
        (Server.R_state (Ldb.Stopped { signal = Signal.SIGTRAP; code = 0; ctx_addr = 0x1f0000 }));
      reply "exited" "527378fdffffff" (Server.R_state (Ldb.Exited (-3)));
      reply "detached" "527364" (Server.R_state Ldb.Detached);
      reply "text" "527409000000666962286e3d313029" (Server.R_text "fib(n=10)");
      reply "int" "5269fbffffff" (Server.R_int (-5));
      reply "core"
        ("5243580000004c4442434f524531040000006d6970730b000000040000000004000000001f00"
        ^ "0200000001000000feffffff0100000008000000000000000000f03f0100000004000000646174"
        ^ "610020000004000000a5e793bc07000000")
        (Server.R_core core);
      refused "no_such_session" "466e03000000" (Server.No_such_session 3);
      refused "closed" "466304000000" (Server.Session_closed 4);
      refused "down" "466401080000006e75622064696564"
        (Server.Session_down { reason = "nub died"; salvaged = true });
      refused "overloaded" "466f0400000062757379" (Server.Overloaded "busy");
      refused "failed" "4666020000006e6f" (Server.Failed "no");
      sv "error" "4503000000626164" (Swire.S_error "bad");
      sv "bye" "4407000000676f6f64627965" (Swire.S_bye "goodbye");
      ("frame", "f55b05000000030000004664f73f78797a", Swire.seal ~seq:5 "xyz");
    ]

(* --- resync -------------------------------------------------------------- *)

(** The two instances of the shared frame codec: the resync properties
    below hold for both. *)
let framings = [ ("wire", Swire.from_client); ("nub", Frame.codec) ]

(** Drive a receive loop over a static buffer the way {!Evloop} does:
    consume frames and skips; a stuck partial frame gets the
    read-deadline treatment ([resync]).  Returns the payloads of the
    frames recovered, in order. *)
let drain_frames (codec : Bytecodec.framing) (buf : string) : string list =
  let buf = ref buf in
  let out = ref [] in
  let stuck = ref false in
  while not !stuck do
    match Bytecodec.scan codec !buf with
    | Bytecodec.S_frame { payload; used; _ } ->
        buf := String.sub !buf used (String.length !buf - used);
        out := payload :: !out
    | Bytecodec.S_skip { skip; _ } ->
        buf := String.sub !buf skip (String.length !buf - skip)
    | Bytecodec.S_need ->
        if String.length !buf = 0 then stuck := true
        else begin
          (* no more bytes are coming: this is the torn-frame stall the
             loop answers with a forced resync *)
          let next = Bytecodec.resync !buf in
          if next = !buf then stuck := true;
          buf := next
        end
  done;
  List.rev !out

(** {!drain_frames} over the wire, decoding client messages. *)
let drain_buffer (buf : string) : Swire.client_msg list =
  List.filter_map
    (fun p -> Result.to_option (Swire.decode_client p))
    (drain_frames Swire.from_client buf)

(** A frame torn at every possible byte boundary, followed by an intact
    frame: the scanner must always recover the survivor, whatever the
    tear left behind. *)
let torn_at_every_offset_case () =
  let torn_payload = Swire.encode_client (Swire.C_cmd (Server.Print "torn_casualty")) in
  let survivor_payload = Swire.encode_client (Swire.C_cmd (Server.Break_function "survivor")) in
  List.iter
    (fun (name, codec) ->
      let torn = Bytecodec.seal codec ~seq:7 torn_payload in
      let survivor = Bytecodec.seal codec ~seq:8 survivor_payload in
      for cut = 0 to String.length torn - 1 do
        let buf = String.sub torn 0 cut ^ survivor in
        if not (List.mem survivor_payload (drain_frames codec buf)) then
          Alcotest.failf "%s: tear at offset %d lost the intact frame behind it" name cut
      done;
      (* and the whole frame, untorn, still arrives alongside *)
      check Alcotest.int (name ^ ": untorn control: both frames decode") 2
        (List.length (drain_frames codec (torn ^ survivor))))
    framings

(** Garbage of every flavor before a frame: scanned past, typed, frame
    recovered. *)
let garbage_prefix_case () =
  let msg = Swire.C_cmd Server.Continue in
  let frame = Swire.seal ~seq:1 (Swire.encode_client msg) in
  List.iter
    (fun junk ->
      let got = drain_buffer (junk ^ frame) in
      if got <> [ msg ] then
        Alcotest.failf "garbage prefix %S did not resync to the frame" junk)
    [
      "x";
      "garbage bytes";
      "\xf5";  (* a lone magic-0 *)
      "\xf5\x00";  (* magic-0 followed by a non-magic-1 *)
      String.make 40 '\xf5';  (* a wall of false frame starts *)
      "\x00\x00\x00\x00\x00\x00\x00\x00";
    ]

(** A corrupted frame (bit flip anywhere in header or payload) never
    decodes as something else: it is skipped with a typed error, and a
    clean frame after it still arrives. *)
let corrupt_frame_case () =
  let payload = Swire.encode_client (Swire.C_cmd (Server.Read_int "x")) in
  let clean_payload = Swire.encode_client (Swire.C_cmd Server.Where) in
  List.iter
    (fun (name, codec) ->
      let frame = Bytecodec.seal codec ~seq:3 payload in
      let clean = Bytecodec.seal codec ~seq:4 clean_payload in
      for i = 0 to String.length frame - 1 do
        let corrupt = Bytes.of_string frame in
        Bytes.set corrupt i (Char.chr (Char.code (Bytes.get corrupt i) lxor 0x10));
        let got = drain_frames codec (Bytes.to_string corrupt ^ clean) in
        (* the CRC covers seq, len and payload, and the magic is matched,
           so the damaged copy must be dropped and the clean one arrive *)
        if got <> [ clean_payload ] then
          Alcotest.failf "%s: bit flip at %d gave %d frames, not just the clean one" name i
            (List.length got)
      done)
    framings

(** A length field over the receiver's limit is a typed [Bad_length]
    skip, never a wait for bytes that will not come, and the frame behind
    the lie is recovered. *)
let bogus_length_case () =
  List.iter
    (fun (name, (codec : Bytecodec.framing)) ->
      let good = Bytecodec.seal codec ~seq:2 "after the storm" in
      List.iter
        (fun len ->
          let buf = Testkit.frame_header codec ~seq:1 ~len ~crc:0xdeadbeef ^ good in
          (match Bytecodec.scan codec buf with
          | Bytecodec.S_skip { error = Bytecodec.Bad_length { claimed; _ }; _ } ->
              check Alcotest.int (name ^ ": claimed length reported") len claimed
          | _ -> Alcotest.failf "%s: a %d-byte claim was not refused" name len);
          check Alcotest.(list string) (name ^ ": frame behind the lie")
            [ "after the storm" ] (drain_frames codec buf))
        [ codec.max_payload + 1; 0x40000000; 0xffffffff ])
    framings

(** The two instances never mistake each other's frames: a frame sealed
    for one magic pair drains to nothing under the other. *)
let prop_magic_pairs_disjoint =
  Testkit.qtest "a frame of one magic pair never scans as the other's" ~count:300
    QCheck.(pair (int_bound 0xffffff) (string_gen_of_size (Gen.int_bound 300) Gen.char))
    (fun (seq, payload) ->
      List.for_all
        (fun (_, sender) ->
          List.for_all
            (fun (_, (receiver : Bytecodec.framing)) ->
              receiver == sender || drain_frames receiver (Bytecodec.seal sender ~seq payload) = [])
            framings)
        framings)

(** The error renderer holds up its end of "typed": every error has a
    readable rendering. *)
let error_render_case () =
  List.iter
    (fun e -> check Alcotest.bool "renders" true (String.length (Swire.error_to_string e) > 0))
    [
      Swire.Garbage 3;
      Swire.Bad_length { seq = 1; claimed = 1 lsl 30; limit = Swire.max_client_payload };
      Swire.Bad_crc { seq = 2 };
      Swire.Bad_message "mystery opcode";
    ]

let () =
  Alcotest.run "swire"
    [
      ( "total",
        [ prop_decode_client_total; prop_decode_server_total; prop_scan_progress ] );
      ( "roundtrip",
        [ prop_client_roundtrip; prop_server_roundtrip; prop_framed_roundtrip;
          Alcotest.test_case "goldens" `Quick goldens_case ] );
      ( "resync",
        [
          Alcotest.test_case "torn frame at every offset" `Quick torn_at_every_offset_case;
          Alcotest.test_case "garbage prefixes" `Quick garbage_prefix_case;
          Alcotest.test_case "corrupt frame then clean frame" `Quick corrupt_frame_case;
          Alcotest.test_case "bogus length" `Quick bogus_length_case;
          prop_magic_pairs_disjoint;
          Alcotest.test_case "errors render" `Quick error_render_case;
        ] );
    ]
