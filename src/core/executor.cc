#include "core/executor.h"

namespace malleus {
namespace core {

Status Executor::Install(plan::ParallelPlan p) {
  MALLEUS_RETURN_NOT_OK(p.Validate(cluster_, cost_));
  plan_ = std::move(p);
  installed_ = true;
  return Status::OK();
}

Result<MigrationReport> Executor::PriceMigration(
    const plan::ParallelPlan& p) const {
  if (!installed_) {
    return Status::FailedPrecondition("no plan installed yet");
  }
  MALLEUS_RETURN_NOT_OK(p.Validate(cluster_, cost_));

  MigrationReport report;
  if (p.Signature() == plan_.Signature()) {
    report.no_op = true;
    return report;
  }
  Result<MigrationPlan> migration = ComputeMigration(plan_, p, cost_);
  MALLEUS_RETURN_NOT_OK(migration.status());
  report.seconds = MigrationSeconds(*migration, cluster_, net_model_);
  report.bytes = migration->total_bytes;
  report.num_transfers = static_cast<int>(migration->transfers.size());
  return report;
}

Result<MigrationReport> Executor::Migrate(plan::ParallelPlan p) {
  MALLEUS_ASSIGN_OR_RETURN(MigrationReport report, PriceMigration(p));
  plan_ = std::move(p);
  return report;
}

Status Executor::Reload(plan::ParallelPlan p) {
  MALLEUS_RETURN_NOT_OK(p.Validate(cluster_, cost_));
  plan_ = std::move(p);
  installed_ = true;
  return Status::OK();
}

}  // namespace core
}  // namespace malleus
