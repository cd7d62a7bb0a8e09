#include "src/workloads/workloads.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/libfs/arckfs.h"
#include "src/libfs/op_ring.h"

namespace trio {

namespace {

std::string Payload(size_t n, char fill = 'w') { return std::string(n, fill); }

Status WriteWhole(FsInterface& fs, const std::string& path, uint64_t size,
                  size_t io_size) {
  TRIO_ASSIGN_OR_RETURN(Fd fd, fs.Open(path, OpenFlags::CreateTrunc()));
  const std::string block = Payload(std::min<uint64_t>(io_size, size));
  uint64_t offset = 0;
  Status status = OkStatus();
  while (offset < size && status.ok()) {
    const size_t chunk = std::min<uint64_t>(block.size(), size - offset);
    Result<size_t> n = fs.Pwrite(fd, block.data(), chunk, offset);
    status = n.ok() ? OkStatus() : n.status();
    offset += chunk;
  }
  Status closed = fs.Close(fd);
  return status.ok() ? closed : status;
}

}  // namespace

// ---------------------------------------------------------------------------
// fio
// ---------------------------------------------------------------------------

Status FioWorkload::Prepare(int threads) {
  for (int t = 0; t < threads; ++t) {
    TRIO_RETURN_IF_ERROR(WriteWhole(fs_, PathFor(t), config_.file_size, 1 << 20));
  }
  return OkStatus();
}

Result<WorkloadStats> FioWorkload::Run(int thread, uint64_t ops) {
  WorkloadStats stats;
  Rng rng(config_.seed + thread);
  OpenFlags flags = config_.is_read ? OpenFlags::ReadOnly() : OpenFlags::ReadWrite();
  TRIO_ASSIGN_OR_RETURN(Fd fd, fs_.Open(PathFor(thread), flags));
  std::vector<char> buffer(config_.block_size, 'f');
  const uint64_t blocks = std::max<uint64_t>(1, config_.file_size / config_.block_size);
  if (config_.use_ring && !config_.is_read) {
    if (config_.ring == nullptr) {
      (void)fs_.Close(fd);
      return InvalidArgument("use_ring set but FioConfig::ring is null");
    }
    // All SQEs of a burst share one payload buffer: the ring only reads it, and it stays
    // live until every CQE of the burst has been reaped below.
    const size_t burst = std::max<size_t>(1, config_.ring_burst);
    std::vector<Sqe> sqes(burst);
    for (uint64_t done = 0; done < ops;) {
      const size_t n = static_cast<size_t>(std::min<uint64_t>(burst, ops - done));
      for (size_t j = 0; j < n; ++j) {
        const uint64_t block = config_.random ? rng.Below(blocks) : (done + j) % blocks;
        Sqe& sqe = sqes[j];
        sqe = Sqe{};
        sqe.op = Sqe::Op::kPwrite;
        sqe.fd = fd;
        sqe.buf = buffer.data();
        sqe.len = static_cast<uint32_t>(buffer.size());
        sqe.offset = block * config_.block_size;
      }
      config_.ring->SubmitBurst(sqes.data(), n);
      for (size_t j = 0; j < n; ++j) {
        const Cqe cqe = config_.ring->WaitCompletion();
        if (!cqe.ok()) {
          (void)fs_.Close(fd);
          return Status(cqe.code(), "ring pwrite failed");
        }
        stats.bytes_written += static_cast<uint64_t>(cqe.result);
        ++stats.ops;
      }
      done += n;
    }
    TRIO_RETURN_IF_ERROR(fs_.Close(fd));
    return stats;
  }
  for (uint64_t i = 0; i < ops; ++i) {
    const uint64_t block = config_.random ? rng.Below(blocks) : i % blocks;
    const uint64_t offset = block * config_.block_size;
    if (config_.is_read) {
      TRIO_ASSIGN_OR_RETURN(size_t n, fs_.Pread(fd, buffer.data(), buffer.size(), offset));
      stats.bytes_read += n;
    } else {
      TRIO_ASSIGN_OR_RETURN(size_t n,
                            fs_.Pwrite(fd, buffer.data(), buffer.size(), offset));
      stats.bytes_written += n;
    }
    ++stats.ops;
  }
  TRIO_RETURN_IF_ERROR(fs_.Close(fd));
  return stats;
}

// ---------------------------------------------------------------------------
// FxMark
// ---------------------------------------------------------------------------

const char* FxMarkBenchName(FxMarkBench bench) {
  switch (bench) {
    case FxMarkBench::kDWTL:
      return "DWTL";
    case FxMarkBench::kMRPL:
      return "MRPL";
    case FxMarkBench::kMRPM:
      return "MRPM";
    case FxMarkBench::kMRPH:
      return "MRPH";
    case FxMarkBench::kMRDL:
      return "MRDL";
    case FxMarkBench::kMRDM:
      return "MRDM";
    case FxMarkBench::kMWCL:
      return "MWCL";
    case FxMarkBench::kMWCM:
      return "MWCM";
    case FxMarkBench::kMWUL:
      return "MWUL";
    case FxMarkBench::kMWUM:
      return "MWUM";
    case FxMarkBench::kMWRL:
      return "MWRL";
    case FxMarkBench::kMWRM:
      return "MWRM";
    case FxMarkBench::kDRBL:
      return "DRBL";
    case FxMarkBench::kDRBM:
      return "DRBM";
  }
  return "?";
}

bool FxMarkShared(FxMarkBench bench) {
  switch (bench) {
    case FxMarkBench::kMRPM:
    case FxMarkBench::kMRPH:
    case FxMarkBench::kMRDM:
    case FxMarkBench::kMWCM:
    case FxMarkBench::kMWUM:
    case FxMarkBench::kMWRM:
    case FxMarkBench::kDRBM:
      return true;
    default:
      return false;
  }
}

Status FxMarkWorkload::Prepare(int threads) {
  threads_ = threads;
  truncate_sizes_.assign(threads, 0);

  // Shared resources: /fx_shared five-deep, populated with files.
  TRIO_RETURN_IF_ERROR(fs_.Mkdir("/fx_shared"));
  std::string deep = "/fx_shared";
  for (int d = 0; d < 4; ++d) {
    deep += "/d" + std::to_string(d);
    TRIO_RETURN_IF_ERROR(fs_.Mkdir(deep));
  }
  shared_deep_ = deep;
  for (int i = 0; i < 64; ++i) {
    TRIO_ASSIGN_OR_RETURN(Fd fd, fs_.Open(deep + "/s" + std::to_string(i),
                                          OpenFlags::CreateRw()));
    TRIO_RETURN_IF_ERROR(fs_.Close(fd));
  }
  TRIO_RETURN_IF_ERROR(WriteWhole(fs_, "/fx_shared/bulk", 1 << 20, 1 << 20));

  for (int t = 0; t < threads; ++t) {
    const std::string dir = PrivateDir(t);
    TRIO_RETURN_IF_ERROR(fs_.Mkdir(dir));
    // Five-depth private tree with one file at the bottom (MRPL).
    std::string path = dir;
    for (int d = 0; d < 4; ++d) {
      path += "/d" + std::to_string(d);
      TRIO_RETURN_IF_ERROR(fs_.Mkdir(path));
    }
    TRIO_ASSIGN_OR_RETURN(Fd fd, fs_.Open(path + "/target", OpenFlags::CreateRw()));
    TRIO_RETURN_IF_ERROR(fs_.Close(fd));
    deep_private_.push_back(path + "/target");
    // Files to enumerate (MRDL) and a large file to truncate (DWTL) / read (DRBL).
    for (int i = 0; i < 16; ++i) {
      TRIO_ASSIGN_OR_RETURN(Fd f, fs_.Open(dir + "/e" + std::to_string(i),
                                           OpenFlags::CreateRw()));
      TRIO_RETURN_IF_ERROR(fs_.Close(f));
    }
    TRIO_RETURN_IF_ERROR(WriteWhole(fs_, dir + "/big", 1 << 20, 1 << 20));
    truncate_sizes_[t] = 1 << 20;
  }
  return OkStatus();
}

Status FxMarkWorkload::Op(int thread, uint64_t i) {
  Rng rng(seed_ * 1000003 + thread * 131 + i);
  char buffer[4096];
  switch (bench_) {
    case FxMarkBench::kDWTL: {
      uint64_t& size = truncate_sizes_[thread];
      if (size < 4096) {
        TRIO_RETURN_IF_ERROR(
            fs_.Truncate(PrivateDir(thread) + "/big", 1 << 20));
        size = 1 << 20;
      }
      size -= 4096;
      return fs_.Truncate(PrivateDir(thread) + "/big", size);
    }
    case FxMarkBench::kMRPL: {
      TRIO_ASSIGN_OR_RETURN(Fd fd,
                            fs_.Open(deep_private_[thread], OpenFlags::ReadOnly()));
      return fs_.Close(fd);
    }
    case FxMarkBench::kMRPM: {
      const std::string path = shared_deep_ + "/s" + std::to_string(rng.Below(64));
      TRIO_ASSIGN_OR_RETURN(Fd fd, fs_.Open(path, OpenFlags::ReadOnly()));
      return fs_.Close(fd);
    }
    case FxMarkBench::kMRPH: {
      TRIO_ASSIGN_OR_RETURN(Fd fd, fs_.Open(shared_deep_ + "/s0", OpenFlags::ReadOnly()));
      return fs_.Close(fd);
    }
    case FxMarkBench::kMRDL: {
      Result<std::vector<DirEntryInfo>> entries = fs_.ReadDir(PrivateDir(thread));
      return entries.ok() ? OkStatus() : entries.status();
    }
    case FxMarkBench::kMRDM: {
      Result<std::vector<DirEntryInfo>> entries = fs_.ReadDir(shared_deep_);
      return entries.ok() ? OkStatus() : entries.status();
    }
    case FxMarkBench::kMWCL:
    case FxMarkBench::kMWCM: {
      const std::string dir =
          bench_ == FxMarkBench::kMWCL ? PrivateDir(thread) : std::string("/fx_shared");
      const std::string path =
          dir + "/c" + std::to_string(thread) + "_" + std::to_string(i);
      TRIO_ASSIGN_OR_RETURN(Fd fd, fs_.Open(path, OpenFlags::CreateRw()));
      return fs_.Close(fd);
    }
    case FxMarkBench::kMWUL:
    case FxMarkBench::kMWUM: {
      const std::string dir =
          bench_ == FxMarkBench::kMWUL ? PrivateDir(thread) : std::string("/fx_shared");
      const std::string path =
          dir + "/u" + std::to_string(thread) + "_" + std::to_string(i);
      TRIO_ASSIGN_OR_RETURN(Fd fd, fs_.Open(path, OpenFlags::CreateRw()));
      TRIO_RETURN_IF_ERROR(fs_.Close(fd));
      return fs_.Unlink(path);
    }
    case FxMarkBench::kMWRL: {
      const std::string dir = PrivateDir(thread);
      const std::string a = dir + "/r" + std::to_string(thread);
      const std::string b = dir + "/r" + std::to_string(thread) + "x";
      if (i == 0) {
        TRIO_ASSIGN_OR_RETURN(Fd fd, fs_.Open(a, OpenFlags::CreateRw()));
        TRIO_RETURN_IF_ERROR(fs_.Close(fd));
      }
      return i % 2 == 0 ? fs_.Rename(a, b) : fs_.Rename(b, a);
    }
    case FxMarkBench::kMWRM: {
      const std::string src =
          PrivateDir(thread) + "/m" + std::to_string(thread) + "_" + std::to_string(i);
      TRIO_ASSIGN_OR_RETURN(Fd fd, fs_.Open(src, OpenFlags::CreateRw()));
      TRIO_RETURN_IF_ERROR(fs_.Close(fd));
      return fs_.Rename(src, "/fx_shared/m" + std::to_string(thread) + "_" +
                                 std::to_string(i));
    }
    case FxMarkBench::kDRBL: {
      TRIO_ASSIGN_OR_RETURN(Fd fd,
                            fs_.Open(PrivateDir(thread) + "/big", OpenFlags::ReadOnly()));
      Result<size_t> n = fs_.Pread(fd, buffer, sizeof(buffer),
                                   rng.Below(256) * 4096);
      TRIO_RETURN_IF_ERROR(fs_.Close(fd));
      return n.ok() ? OkStatus() : n.status();
    }
    case FxMarkBench::kDRBM: {
      TRIO_ASSIGN_OR_RETURN(Fd fd, fs_.Open("/fx_shared/bulk", OpenFlags::ReadOnly()));
      Result<size_t> n = fs_.Pread(fd, buffer, sizeof(buffer), rng.Below(256) * 4096);
      TRIO_RETURN_IF_ERROR(fs_.Close(fd));
      return n.ok() ? OkStatus() : n.status();
    }
  }
  return InvalidArgument("unknown benchmark");
}

// ---------------------------------------------------------------------------
// Filebench
// ---------------------------------------------------------------------------

const char* FilebenchName(FilebenchPersonality personality) {
  switch (personality) {
    case FilebenchPersonality::kFileserver:
      return "Fileserver";
    case FilebenchPersonality::kWebserver:
      return "Webserver";
    case FilebenchPersonality::kWebproxy:
      return "Webproxy";
    case FilebenchPersonality::kVarmail:
      return "Varmail";
  }
  return "?";
}

int FilebenchConfig::FileCount() const {
  double count;
  switch (personality) {
    case FilebenchPersonality::kFileserver:
      count = 10000;
      break;
    case FilebenchPersonality::kWebserver:
      count = 20000;
      break;
    default:
      count = 100000;
      break;
  }
  return std::max(4, static_cast<int>(count * scale));
}

uint64_t FilebenchConfig::AvgFileSize() const {
  switch (personality) {
    case FilebenchPersonality::kFileserver:
      return 2 << 20;
    case FilebenchPersonality::kWebserver:
      return 64 << 10;
    case FilebenchPersonality::kWebproxy:
    case FilebenchPersonality::kVarmail:
      return 16 << 10;
  }
  return 16 << 10;
}

size_t FilebenchConfig::ReadIoSize() const { return 1 << 20; }

size_t FilebenchConfig::WriteIoSize() const {
  switch (personality) {
    case FilebenchPersonality::kFileserver:
      return 512 << 10;
    case FilebenchPersonality::kWebserver:
      return 256 << 10;
    default:
      return 16 << 10;
  }
}

std::string FilebenchWorkload::FilesetDir(int thread) const {
  return "/fb_" + std::string(FilebenchName(config_.personality)) + "_t" +
         std::to_string(thread);
}

std::string FilebenchWorkload::FilePath(int thread, uint64_t index) const {
  return FilesetDir(thread) + "/f" + std::to_string(index);
}

Status FilebenchWorkload::Prepare(int threads) {
  threads_ = threads;
  rngs_.clear();
  next_new_file_.assign(threads, 1u << 20);
  const int files = config_.FileCount();
  const uint64_t size = std::max<uint64_t>(4096, config_.AvgFileSize() * config_.scale * 4);
  for (int t = 0; t < threads; ++t) {
    rngs_.emplace_back(config_.seed + t);
    std::string dir;
    if (config_.dir_depth > 1) {
      // The FPFS variant: filesets at the bottom of a deep hierarchy (§6.6).
      dir = "/fbdeep_t" + std::to_string(t);
      TRIO_RETURN_IF_ERROR(fs_.Mkdir(dir));
      for (int d = 1; d < config_.dir_depth; ++d) {
        dir += "/l" + std::to_string(d);
        TRIO_RETURN_IF_ERROR(fs_.Mkdir(dir));
      }
      deep_dirs_.push_back(dir);
    } else {
      dir = FilesetDir(t);
      TRIO_RETURN_IF_ERROR(fs_.Mkdir(dir));
    }
    for (int f = 0; f < files; ++f) {
      const std::string path =
          (config_.dir_depth > 1 ? dir : FilesetDir(t)) + "/f" + std::to_string(f);
      TRIO_RETURN_IF_ERROR(WriteWhole(fs_, path, size, config_.WriteIoSize()));
    }
  }
  return OkStatus();
}

Result<WorkloadStats> FilebenchWorkload::Op(int thread, uint64_t i) {
  WorkloadStats stats;
  Rng& rng = rngs_[thread];
  const int files = config_.FileCount();
  const std::string dir =
      config_.dir_depth > 1 ? deep_dirs_[thread] : FilesetDir(thread);
  auto path_of = [&](uint64_t index) { return dir + "/f" + std::to_string(index); };
  const uint64_t file_size =
      std::max<uint64_t>(4096, config_.AvgFileSize() * config_.scale * 4);
  std::vector<char> buffer(std::max(config_.ReadIoSize(), config_.WriteIoSize()), 'b');

  auto read_whole = [&](const std::string& path) -> Status {
    TRIO_ASSIGN_OR_RETURN(Fd fd, fs_.Open(path, OpenFlags::ReadOnly()));
    uint64_t offset = 0;
    while (true) {
      Result<size_t> n = fs_.Pread(fd, buffer.data(), config_.ReadIoSize(), offset);
      if (!n.ok()) {
        (void)fs_.Close(fd);
        return n.status();
      }
      stats.bytes_read += *n;
      offset += *n;
      if (*n < config_.ReadIoSize()) {
        break;
      }
    }
    ++stats.ops;
    return fs_.Close(fd);
  };
  auto append = [&](const std::string& path, size_t n) -> Status {
    OpenFlags flags = OpenFlags::ReadWrite();
    flags.append = true;
    flags.create = true;
    TRIO_ASSIGN_OR_RETURN(Fd fd, fs_.Open(path, flags));
    Result<size_t> wrote = fs_.Write(fd, buffer.data(), n);
    if (!wrote.ok()) {
      (void)fs_.Close(fd);
      return wrote.status();
    }
    stats.bytes_written += *wrote;
    ++stats.ops;
    TRIO_RETURN_IF_ERROR(fs_.Fsync(fd));
    return fs_.Close(fd);
  };
  auto create_file = [&]() -> Status {
    const std::string path = dir + "/n" + std::to_string(next_new_file_[thread]++);
    TRIO_RETURN_IF_ERROR(WriteWhole(fs_, path, file_size, config_.WriteIoSize()));
    stats.bytes_written += file_size;
    ++stats.ops;
    // Keep the fileset bounded: delete it again.
    return fs_.Unlink(path);
  };

  switch (config_.personality) {
    case FilebenchPersonality::kFileserver:
      // create+write, append, read-whole, delete(recreated), stat. R:W = 1:2.
      TRIO_RETURN_IF_ERROR(create_file());
      TRIO_RETURN_IF_ERROR(append(path_of(rng.Below(files)), config_.WriteIoSize()));
      TRIO_RETURN_IF_ERROR(read_whole(path_of(rng.Below(files))));
      {
        Result<StatInfo> info = fs_.Stat(path_of(rng.Below(files)));
        TRIO_RETURN_IF_ERROR(info.ok() ? OkStatus() : info.status());
        ++stats.ops;
      }
      break;
    case FilebenchPersonality::kWebserver:
      // 10 whole-file reads + 1 log append (10:1).
      for (int r = 0; r < 10; ++r) {
        TRIO_RETURN_IF_ERROR(read_whole(path_of(rng.Below(files))));
      }
      TRIO_RETURN_IF_ERROR(append(dir + "/weblog", 16 << 10));
      break;
    case FilebenchPersonality::kWebproxy:
      // delete+create+append, then 5 small-file reads (5:1).
      TRIO_RETURN_IF_ERROR(create_file());
      for (int r = 0; r < 5; ++r) {
        TRIO_RETURN_IF_ERROR(read_whole(path_of(rng.Below(files))));
      }
      break;
    case FilebenchPersonality::kVarmail:
      // Mail pattern: delete, create+fsync, read, append+fsync, read (1:1).
      TRIO_RETURN_IF_ERROR(create_file());
      TRIO_RETURN_IF_ERROR(read_whole(path_of(rng.Below(files))));
      TRIO_RETURN_IF_ERROR(append(path_of(rng.Below(files)), 16 << 10));
      TRIO_RETURN_IF_ERROR(read_whole(path_of(rng.Below(files))));
      break;
  }
  return stats;
}


// ---------------------------------------------------------------------------
// Fleet
// ---------------------------------------------------------------------------

FleetWorkload::FleetWorkload(KernelController& kernel, FleetConfig config)
    : kernel_(kernel), config_(config) {}

FleetWorkload::~FleetWorkload() = default;

std::string FleetWorkload::SharedPath(uint64_t rank) const {
  return "/fleet_shared/f" + std::to_string(rank);
}

std::string FleetWorkload::PrivateHome(int tenant) const {
  return "/fleet_t" + std::to_string(tenant);
}

Status FleetWorkload::Prepare() {
  tenants_.clear();
  per_tenant_.clear();
  zipf_ = std::make_unique<Zipfian>(static_cast<uint64_t>(config_.shared_files),
                                    config_.zipf_theta);
  ArckFsConfig fs_config;
  fs_config.uid = config_.uid;
  fs_config.gid = config_.uid;
  fs_config.ring.enabled = config_.use_ring;
  // Default lease batches (64 inos / 64 pages) are sized for a handful of tenants; a
  // fleet of 64+ would exhaust the inode space and page pool on first allocation before
  // doing any work. Scale the batch down so aggregate reservations stay a fraction of
  // the pool — small batches are the realistic fleet configuration anyway.
  if (config_.tenants >= 16) {
    fs_config.ino_batch = 8;
    fs_config.page_batch = 16;
  }
  for (int t = 0; t < config_.tenants; ++t) {
    tenants_.push_back(std::make_unique<ArckFs>(kernel_, fs_config));
    TenantState state;
    state.rng = Rng(config_.seed + 1000003ull * static_cast<uint64_t>(t));
    per_tenant_.push_back(std::move(state));
  }
  // Tenant 0 provisions the shared pool; every tenant builds its own private home so the
  // private files' write leases start in the owning tenant.
  ArckFs& provisioner = *tenants_[0];
  TRIO_RETURN_IF_ERROR(provisioner.Mkdir("/fleet_shared"));
  for (int f = 0; f < config_.shared_files; ++f) {
    TRIO_RETURN_IF_ERROR(WriteWhole(provisioner, SharedPath(static_cast<uint64_t>(f)),
                                    config_.file_size, config_.io_size));
  }
  // Release the write maps taken while provisioning so reader tenants do not begin by
  // revoking tenant 0 on every shared file. Directory FIRST: committing it hands the
  // kernel the records (and tenant 0's implicit write grants) for the freshly created
  // children, which the per-file releases below then relinquish. File-first would make
  // those releases kernel-side no-ops and leave the implicit grants standing.
  (void)provisioner.ReleaseFile("/fleet_shared");
  for (int f = 0; f < config_.shared_files; ++f) {
    (void)provisioner.ReleaseFile(SharedPath(static_cast<uint64_t>(f)));
  }
  for (int t = 0; t < config_.tenants; ++t) {
    ArckFs& fs = *tenants_[static_cast<size_t>(t)];
    TRIO_RETURN_IF_ERROR(fs.Mkdir(PrivateHome(t)));
    TRIO_RETURN_IF_ERROR(WriteWhole(fs, PrivateHome(t) + "/work", config_.file_size,
                                    config_.io_size));
  }
  return OkStatus();
}

Status FleetWorkload::Op(int tenant, uint64_t i) {
  (void)i;
  TenantState& state = per_tenant_[static_cast<size_t>(tenant)];
  ArckFs& fs = *tenants_[static_cast<size_t>(tenant)];
  const uint64_t pick = state.rng.Below(1000);
  const uint64_t blocks =
      std::max<uint64_t>(1, config_.file_size / config_.io_size);

  if (pick < static_cast<uint64_t>(config_.rename_permille)) {
    // Cross-shard churn: shuttle the private file between the tenant's home directory
    // and the shared directory (FxMark MWRM's move-to-shared, fleet-wide). The two
    // directories' inodes land in different controller shards for most tenants, so this
    // is the two-phase ordered-acquire path; renaming into /fleet_shared also write-maps
    // the shared directory, revoking every reader.
    const std::string home = PrivateHome(tenant) + "/work";
    const std::string away = "/fleet_shared/t" + std::to_string(tenant) + "_work";
    Status moved = state.private_in_shared ? fs.Rename(away, home)
                                           : fs.Rename(home, away);
    TRIO_RETURN_IF_ERROR(moved);
    state.private_in_shared = !state.private_in_shared;
    ++state.stats.ops;
    return OkStatus();
  }

  if (pick < static_cast<uint64_t>(config_.rename_permille + config_.write_permille)) {
    const std::string path = state.private_in_shared
                                 ? "/fleet_shared/t" + std::to_string(tenant) + "_work"
                                 : PrivateHome(tenant) + "/work";
    TRIO_ASSIGN_OR_RETURN(Fd fd, fs.Open(path, OpenFlags::ReadWrite()));
    const std::string block = Payload(config_.io_size, 'F');
    Status write_status = OkStatus();
    if (config_.use_ring && fs.ring_engine() != nullptr) {
      // Async path: a burst of positional writes through the tenant's own ring, reaped
      // in the same op so the payload buffer stays live across the burst.
      const size_t burst = std::max<size_t>(1, config_.ring_burst);
      std::vector<Sqe> sqes(burst);
      for (size_t b = 0; b < burst; ++b) {
        Sqe& sqe = sqes[b];
        sqe.op = Sqe::Op::kPwrite;
        sqe.fd = fd;
        sqe.buf = block.data();
        sqe.len = static_cast<uint32_t>(block.size());
        sqe.offset = state.rng.Below(blocks) * config_.io_size;
      }
      fs.ring_engine()->SubmitBurst(sqes.data(), sqes.size());
      for (size_t b = 0; b < burst; ++b) {
        const Cqe cqe = fs.ring_engine()->WaitCompletion();
        if (!cqe.ok()) {
          write_status = Status(cqe.code(), "fleet ring pwrite failed");
          continue;  // Keep reaping: every submitted CQE must be consumed.
        }
        state.stats.bytes_written += static_cast<uint64_t>(cqe.result);
      }
    } else {
      const uint64_t offset = state.rng.Below(blocks) * config_.io_size;
      Result<size_t> n = fs.Pwrite(fd, block.data(), block.size(), offset);
      if (n.ok()) {
        state.stats.bytes_written += n.value();
      }
      write_status = n.status();
    }
    Status closed = fs.Close(fd);
    TRIO_RETURN_IF_ERROR(write_status);
    TRIO_RETURN_IF_ERROR(closed);
    ++state.stats.ops;
    return OkStatus();
  }

  // Zipfian shared read: the read-mostly path.
  const uint64_t rank = zipf_->Next(state.rng);
  TRIO_ASSIGN_OR_RETURN(Fd fd, fs.Open(SharedPath(rank), OpenFlags::ReadOnly()));
  std::vector<char> buffer(config_.io_size);
  const uint64_t offset = state.rng.Below(blocks) * config_.io_size;
  Result<size_t> n = fs.Pread(fd, buffer.data(), buffer.size(), offset);
  Status closed = fs.Close(fd);
  TRIO_RETURN_IF_ERROR(n.status());
  TRIO_RETURN_IF_ERROR(closed);
  state.stats.bytes_read += n.value();
  ++state.stats.ops;
  return OkStatus();
}

}  // namespace trio
