// lwfs_shell: a tiny persistent file-manager shell over LwfsFs.
//
// Commands are read from stdin (one per line) against a file-backed LWFS
// deployment rooted at a state directory, so data and names survive
// between invocations:
//
//   $ echo -e "mkdir /data\nput /data/hello hello-world\nls /data" |
//       ./lwfs_shell /tmp/lwfs-state
//   $ echo "get /data/hello" | ./lwfs_shell /tmp/lwfs-state
//   hello-world
//
// Commands: mkdir <dir> | ls <dir> | put <file> <text> | get <file> |
//           stat <file> | rm <file> | mv <from> <to> | fsck |
//           stats [pattern] | help
//
// `stats` prints the deployment's metrics snapshot as JSON; a pattern
// (`*` = one dotted segment, `**` = any number) keeps the matching cells,
// e.g. `stats storage.*.op.obj_write.*`.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "core/runtime.h"
#include "lwfsfs/lwfsfs.h"

using namespace lwfs;

namespace {

void Help() {
  std::printf(
      "commands:\n"
      "  mkdir <dir>         create a directory\n"
      "  ls <dir>            list a directory\n"
      "  put <file> <text>   write text to a file (created if absent)\n"
      "  get <file>          print a file's contents\n"
      "  stat <file>         show size and stripe layout\n"
      "  rm <file>           remove a file\n"
      "  mv <from> <to>      rename\n"
      "  fsck                check the file system\n"
      "  stats [pattern]     deployment metrics as JSON (pattern: a.*.b, **)\n"
      "  help                this text\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string state_dir = argc > 1 ? argv[1] : "/tmp/lwfs-shell-state";

  core::RuntimeOptions options;
  options.storage_servers = 4;
  options.backend = core::RuntimeOptions::Backend::kFile;
  options.file_store_root = state_dir + "/stores";
  options.naming_snapshot_file = state_dir + "/namespace.snap";
  auto runtime = core::ServiceRuntime::Start(options);
  if (!runtime.ok()) {
    std::fprintf(stderr, "startup failed: %s\n",
                 runtime.status().ToString().c_str());
    return 1;
  }
  (*runtime)->AddUser("shell", "shell", 1);
  auto client = (*runtime)->MakeClient();
  auto cred = client->Login("shell", "shell").value();
  // First run creates container 1; later runs re-acquire the same id.
  auto cid = client->CreateContainer(cred).value();
  auto cap = client->GetCap(cred, cid, security::kOpAll).value();
  auto fs = fs::LwfsFs::Mount(client.get(), cap, "/shell", {}).value();

  std::fprintf(stderr, "lwfs shell on %s (4 file-backed servers)\n",
               state_dir.c_str());

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd, path;
    in >> cmd;
    if (cmd.empty() || cmd[0] == '#') continue;
    if (cmd == "help") {
      Help();
    } else if (cmd == "quit" || cmd == "exit") {
      break;
    } else if (cmd == "stats") {
      std::string pattern = "**";
      in >> pattern;
      const metrics::Snapshot all = (*runtime)->metrics()->Snapshot();
      metrics::Snapshot shown;
      for (const auto& [name, value] : all.cells()) {
        if (metrics::Matches(pattern, name)) shown.Add(name, value);
      }
      std::printf("%s\n", shown.Json().c_str());
    } else if (cmd == "fsck") {
      auto report = fs->Fsck();
      if (!report.ok()) {
        std::printf("fsck: %s\n", report.status().ToString().c_str());
        continue;
      }
      std::printf("fsck: %llu files, %llu dirs, %llu reachable objects, "
                  "%zu orphans, %zu broken\n",
                  (unsigned long long)report->files,
                  (unsigned long long)report->directories,
                  (unsigned long long)report->reachable_objects,
                  report->orphans.size(), report->broken_files.size());
    } else if (cmd == "mkdir" && (in >> path)) {
      Status s = fs->Mkdir(path);
      if (!s.ok()) std::printf("mkdir: %s\n", s.ToString().c_str());
    } else if (cmd == "ls" && (in >> path)) {
      auto names = fs->Readdir(path == "/" ? "" : path);
      if (!names.ok()) {
        std::printf("ls: %s\n", names.status().ToString().c_str());
        continue;
      }
      for (const std::string& name : *names) std::printf("%s\n", name.c_str());
    } else if (cmd == "put" && (in >> path)) {
      std::string text;
      std::getline(in, text);
      if (!text.empty() && text[0] == ' ') text.erase(0, 1);
      auto file = fs->Exists(path) ? fs->Open(path) : fs->Create(path);
      if (!file.ok()) {
        std::printf("put: %s\n", file.status().ToString().c_str());
        continue;
      }
      Status s = core::Await(
                     fs->WriteAsync(
                         *file, {{0, util::SharedSlice::External(ByteSpan(
                                         reinterpret_cast<const std::uint8_t*>(
                                             text.data()),
                                         text.size()))}}))
                     .status();
      if (s.ok()) s = fs->Truncate(*file, text.size());
      if (s.ok()) s = fs->Flush(*file);
      if (!s.ok()) std::printf("put: %s\n", s.ToString().c_str());
    } else if (cmd == "get" && (in >> path)) {
      auto file = fs->Open(path);
      if (!file.ok()) {
        std::printf("get: %s\n", file.status().ToString().c_str());
        continue;
      }
      auto size = fs->Size(*file).value_or(0);
      auto got = core::Await(fs->ReadAsync(*file, {{0, size}}));
      if (!got.ok()) {
        std::printf("get: %s\n", got.status().ToString().c_str());
        continue;
      }
      const ByteSpan bytes = got->slices.front().span();
      fwrite(bytes.data(), 1, bytes.size(), stdout);
      std::printf("\n");
    } else if (cmd == "stat" && (in >> path)) {
      auto file = fs->Open(path);
      if (!file.ok()) {
        std::printf("stat: %s\n", file.status().ToString().c_str());
        continue;
      }
      auto size = fs->Size(*file).value_or(0);
      std::printf("%s: %llu bytes, stripe %u B x %zu (servers:", path.c_str(),
                  (unsigned long long)size, file->stripe_size,
                  file->stripes.size());
      for (const auto& stripe : file->stripes) {
        std::printf(" %u", stripe.server);
      }
      std::printf(")\n");
    } else if (cmd == "rm" && (in >> path)) {
      Status s = fs->Remove(path);
      if (!s.ok()) std::printf("rm: %s\n", s.ToString().c_str());
    } else if (cmd == "mv" && (in >> path)) {
      std::string to;
      if (in >> to) {
        Status s = fs->Rename(path, to);
        if (!s.ok()) std::printf("mv: %s\n", s.ToString().c_str());
      }
    } else {
      std::printf("unknown command (try: help)\n");
    }
  }

  Status saved = (*runtime)->SaveNamingSnapshot();
  if (!saved.ok()) {
    std::fprintf(stderr, "warning: %s\n", saved.ToString().c_str());
  }
  return 0;
}
